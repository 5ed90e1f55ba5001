(* domain-escape: conservative escape analysis over the Typedtree.

   A closure handed to Domain.spawn (or installed as a Domain.DLS
   initialiser) runs on another domain / is re-run per domain, so any
   mutable value it captures is shared mutable state.  The analysis is
   purely local: free variables of the closure are the idents used but
   not bound inside it (Ident stamps are unique, so no scope tracking
   is needed), and a free variable is flagged when its type is
   structurally mutable — ref, array, bytes, Hashtbl/Buffer/Queue/Stack,
   or a record declared with mutable fields in the same compilation
   unit.  Atomic.t is the sanctioned sharing primitive and is exempt.

   The one indirection the analysis sees through is a spawn argument
   that names a local [let]-bound function ([Domain.spawn worker]); any
   other non-literal argument is flagged as opaque, erring loud. *)

open Typedtree

let spawn_targets = [ "Domain.spawn"; "Domain.DLS.new_key" ]

let path_is name target =
  String.equal name target || String.ends_with ~suffix:("." ^ target) name

let rec first_some f = function
  | [] -> None
  | x :: rest -> ( match f x with Some _ as s -> s | None -> first_some f rest)

(* Structural mutability of a type expression.  [local_decls] maps
   same-unit type names to "declared with a mutable field"; records
   from other units are invisible (conservatively immutable) — the
   worker-state records the rule exists for live next to their spawns. *)
let rec mutable_reason ~local_decls depth ty =
  if depth > 4 then None
  else
    let recurse = mutable_reason ~local_decls (depth + 1) in
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
        let name = Path.name p in
        let is t = path_is name t in
        if is "Atomic.t" then None
        else if is "ref" then Some "ref cell"
        else if String.equal name "array" then Some "array"
        else if String.equal name "bytes" || is "Bytes.t" then Some "bytes"
        else if is "Hashtbl.t" then Some "Hashtbl.t"
        else if is "Buffer.t" then Some "Buffer.t"
        else if is "Queue.t" then Some "Queue.t"
        else if is "Stack.t" then Some "Stack.t"
        else begin
          (* Only an unqualified path names a same-unit type: [Float.t]
             is not this unit's [t]. *)
          let local =
            match p with
            | Path.Pident id -> Hashtbl.find_opt local_decls (Ident.name id)
            | _ -> None
          in
          match local with
          | Some true ->
              Some
                (Printf.sprintf "record with mutable fields (%s)" (Path.last p))
          | _ -> first_some recurse args
        end
    | Types.Ttuple ts -> first_some recurse ts
    | Types.Tpoly (ty, _) -> recurse ty
    | _ -> None

(* Same-unit type declarations with at least one mutable field. *)
let collect_local_decls str =
  let decls = Hashtbl.create 16 in
  let default = Tast_iterator.default_iterator in
  let type_declaration _it (td : type_declaration) =
    let mut =
      match td.typ_kind with
      | Ttype_record lds ->
          List.exists (fun ld -> ld.ld_mutable = Asttypes.Mutable) lds
      | _ -> false
    in
    Hashtbl.replace decls td.typ_name.Asttypes.txt mut
  in
  let it = { default with type_declaration } in
  it.structure it str;
  decls

(* let-bound function literals, for seeing through [Domain.spawn worker]. *)
let collect_fn_bindings str =
  let fns = Hashtbl.create 16 in
  let default = Tast_iterator.default_iterator in
  let value_binding it (vb : value_binding) =
    (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Tpat_var (id, _), Texp_function _ ->
        Hashtbl.replace fns (Ident.unique_name id) vb.vb_expr
    | _ -> ());
    default.value_binding it vb
  in
  let it = { default with value_binding } in
  it.structure it str;
  fns

(* Free variables of [closure]: idents used but bound nowhere inside
   it.  Uses are kept in traversal order, one entry per ident. *)
let free_vars closure =
  let bound = Hashtbl.create 32 in
  let used = ref [] in
  let default = Tast_iterator.default_iterator in
  let bind id = Hashtbl.replace bound (Ident.unique_name id) () in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_var (id, _) -> bind id
    | Tpat_alias (_, id, _) -> bind id
    | _ -> ());
    default.pat it p
  in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_function { param; _ } -> bind param
    | Texp_for (id, _, _, _, _, _) -> bind id
    | Texp_ident (Path.Pident id, _, _) ->
        used := (id, e.exp_loc, e.exp_type) :: !used
    | _ -> ());
    default.expr it e
  in
  let it = { default with pat; expr } in
  it.expr it closure;
  let seen = Hashtbl.create 32 in
  List.filter
    (fun (id, _, _) ->
      let key = Ident.unique_name id in
      if Hashtbl.mem bound key || Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.rev !used)

let check ~path str =
  let local_decls = collect_local_decls str in
  let fn_bindings = collect_fn_bindings str in
  let findings = ref [] in
  let emit (loc : Location.t) message =
    findings :=
      {
        Kernel.rule = Kernel.Domain_escape;
        file = path;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        message;
      }
      :: !findings
  in
  let analyze_closure ~target closure =
    List.iter
      (fun (id, loc, ty) ->
        match mutable_reason ~local_decls 0 ty with
        | None -> ()
        | Some reason ->
            emit loc
              (Printf.sprintf
                 "mutable %s `%s' is captured by a closure passed to %s; \
                  cross-domain sharing must go through Atomic, or the state \
                  must stay domain-confined"
                 reason (Ident.name id) target))
      (free_vars closure)
  in
  let default = Tast_iterator.default_iterator in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        let name = Path.name p in
        match List.find_opt (path_is name) spawn_targets with
        | None -> ()
        | Some target -> (
            (* erased optional arguments surface as ghost [None]
               constructs in [args]; the closure is the unlabeled one *)
            match
              List.find_map
                (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
                args
            with
            | None -> ()
            | Some arg -> (
                match arg.exp_desc with
                | Texp_function _ -> analyze_closure ~target arg
                | Texp_ident (Path.Pident id, _, _) -> (
                    match
                      Hashtbl.find_opt fn_bindings (Ident.unique_name id)
                    with
                    | Some fn -> analyze_closure ~target fn
                    | None ->
                        emit arg.exp_loc
                          (Printf.sprintf
                             "opaque closure argument to %s; pass a literal \
                              fun or a locally let-bound function so captures \
                              can be checked"
                             target))
                | _ ->
                    emit arg.exp_loc
                      (Printf.sprintf
                         "opaque closure argument to %s; pass a literal fun \
                          or a locally let-bound function so captures can be \
                          checked"
                         target))))
    | _ -> ());
    default.expr it e
  in
  let it = { default with expr } in
  it.structure it str;
  List.rev !findings
