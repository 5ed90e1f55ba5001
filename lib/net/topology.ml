module Sim = Mcc_engine.Sim

type t = {
  sim : Sim.t;
  mutable nodes : Node.t list;  (* reverse insertion order *)
  mutable node_count : int;
  mutable links : Link.t list;
  mutable link_count : int;
  groups : (int, Node.t) Hashtbl.t;
}

let create sim =
  { sim; nodes = []; node_count = 0; links = []; link_count = 0; groups = Hashtbl.create 16 }

let sim t = t.sim

let add_node t kind =
  let node = Node.create ~sim:t.sim ~id:t.node_count ~kind in
  t.node_count <- t.node_count + 1;
  t.nodes <- node :: t.nodes;
  node

let nodes t = List.rev t.nodes

let node t id =
  match List.find_opt (fun (n : Node.t) -> n.Node.id = id) t.nodes with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Topology.node: unknown id %d" id)

let dst_kind_of (n : Node.t) =
  match n.Node.kind with
  | Node.Host -> Link.To_host
  | Node.Lan -> Link.To_lan
  | Node.Edge_router | Node.Core_router -> Link.To_router

let connect t a b ~rate_bps ~delay_s ~buffer_bytes ?buffer_packets
    ?ecn_threshold_bytes () =
  let make ~src ~dst =
    let id = t.link_count in
    t.link_count <- t.link_count + 1;
    let link =
      Link.create ~sim:t.sim ~id ~src:src.Node.id ~dst:dst.Node.id
        ~dst_kind:(dst_kind_of dst) ~rate_bps ~delay_s ~buffer_bytes
        ?buffer_packets ?ecn_threshold_bytes ()
    in
    (* One [Some link] per link, not one per delivered packet. *)
    let from = Some link in
    link.Link.deliver <- (fun pkt -> Node.receive dst ~from pkt);
    t.links <- link :: t.links;
    link
  in
  let ab = make ~src:a ~dst:b in
  let ba = make ~src:b ~dst:a in
  ab.Link.rev <- Some ba;
  ba.Link.rev <- Some ab;
  a.Node.links <- ab :: a.Node.links;
  b.Node.links <- ba :: b.Node.links;
  (ab, ba)

(* Dijkstra's frontier: a binary min-heap of (distance, node id) pairs,
   ordered by distance and then id, with lazy deletion (an entry whose
   distance is above the node's current one is stale).  Popping the
   least live entry therefore visits nodes in exactly the order of a
   linear scan for the lowest-id node at the least distance. *)
type frontier = {
  mutable d : float array;
  mutable id : int array;
  mutable len : int;
}

let before f i j = f.d.(i) < f.d.(j) || (f.d.(i) = f.d.(j) && f.id.(i) < f.id.(j))

let swap f i j =
  let d = f.d.(i) and id = f.id.(i) in
  f.d.(i) <- f.d.(j);
  f.id.(i) <- f.id.(j);
  f.d.(j) <- d;
  f.id.(j) <- id

let rec sift_up f i =
  let parent = (i - 1) / 2 in
  if i > 0 && before f i parent then begin
    swap f i parent;
    sift_up f parent
  end

let rec sift_down f i =
  let l = (2 * i) + 1 in
  let least = if l < f.len && before f l i then l else i in
  let least = if l + 1 < f.len && before f (l + 1) least then l + 1 else least in
  if least <> i then begin
    swap f i least;
    sift_down f least
  end

let push f dist v =
  if f.len = Array.length f.d then begin
    let cap = max 16 (2 * f.len) in
    let d = Array.make cap 0. and id = Array.make cap 0 in
    Array.blit f.d 0 d 0 f.len;
    Array.blit f.id 0 id 0 f.len;
    f.d <- d;
    f.id <- id
  end;
  f.d.(f.len) <- dist;
  f.id.(f.len) <- v;
  f.len <- f.len + 1;
  sift_up f (f.len - 1)

(* Removes the least entry and returns its node id. *)
let pop f =
  let v = f.id.(0) in
  f.len <- f.len - 1;
  f.d.(0) <- f.d.(f.len);
  f.id.(0) <- f.id.(f.len);
  sift_down f 0;
  v

let compute_routes t =
  let all = nodes t in
  let n = t.node_count in
  (* Ids are 0..n-1 in creation order. *)
  let by_id = Array.of_list all in
  let frontier = { d = [||]; id = [||]; len = 0 } in
  List.iter
    (fun (src : Node.t) ->
      (* Dijkstra from [src] over propagation delay. *)
      let dist = Array.make n infinity in
      let first_hop : Link.t option array = Array.make n None in
      let visited = Array.make n false in
      dist.(src.Node.id) <- 0.;
      frontier.len <- 0;
      push frontier 0. src.Node.id;
      while frontier.len > 0 do
        let stale = frontier.d.(0) > dist.(frontier.id.(0)) in
        let u = pop frontier in
        if not (stale || visited.(u)) then begin
          visited.(u) <- true;
          List.iter
            (fun (l : Link.t) ->
              let v = l.Link.dst in
              let d = dist.(u) +. l.Link.delay_s +. 1e-9 in
              if d < dist.(v) then begin
                dist.(v) <- d;
                first_hop.(v) <-
                  (if u = src.Node.id then Some l else first_hop.(u));
                push frontier d v
              end)
            by_id.(u).Node.links
        end
      done;
      Hashtbl.reset src.Node.fib;
      for v = 0 to n - 1 do
        if v <> src.Node.id then
          match first_hop.(v) with
          | Some l -> Hashtbl.replace src.Node.fib v l
          | None -> ()
      done)
    all

let register_group t ~group ~source = Hashtbl.replace t.groups group source
let group_source t group = Hashtbl.find_opt t.groups group
let links t = List.rev t.links

let kind_str = function
  | Node.Host -> "host"
  | Node.Edge_router -> "edge"
  | Node.Core_router -> "core"
  | Node.Lan -> "lan"

(* A canonical plain-text rendering of the graph: nodes in id order,
   simplex links in creation order, groups in address order.  Two
   topologies built by the same deterministic steps render to the same
   bytes, which is what the generator-determinism tests compare. *)
let dump t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (n : Node.t) ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s\n" n.Node.id (kind_str n.Node.kind)))
    (nodes t);
  List.iter
    (fun (l : Link.t) ->
      Buffer.add_string buf
        (Printf.sprintf "link %d %d->%d rate=%g delay=%g buffer=%d\n"
           l.Link.id l.Link.src l.Link.dst l.Link.rate_bps l.Link.delay_s
           l.Link.buffer_bytes))
    (links t);
  let groups =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold
         (fun g (src : Node.t) acc -> (g, src.Node.id) :: acc)
         t.groups [])
  in
  List.iter
    (fun (g, src) ->
      Buffer.add_string buf (Printf.sprintf "group %#x source=%d\n" g src))
    groups;
  Buffer.contents buf
