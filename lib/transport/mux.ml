module Node = Mcc_net.Node

type t = { mutable handlers : (Mcc_net.Packet.t -> bool) list }

(* The mux hangs off its node, so finding it is a scan of the node's
   (one- or two-element) attachment list, and it is collected with the
   node: a finished topology leaves nothing behind in a domain. *)
type Node.attachment += Mux of t

let rec find = function
  | [] -> None
  | Mux t :: _ -> Some t
  | _ :: rest -> find rest

let of_node (node : Node.t) =
  match find node.Node.attachments with
  | Some t -> t
  | None ->
      let t = { handlers = [] } in
      node.Node.attachments <- Mux t :: node.Node.attachments;
      Node.set_unicast_handler node (fun pkt ->
          let rec dispatch = function
            | [] -> ()
            | h :: rest -> if not (h pkt) then dispatch rest
          in
          dispatch t.handlers);
      t

let add_handler t h = t.handlers <- t.handlers @ [ h ]
