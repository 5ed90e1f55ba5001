(* hot-alloc: allocation sites inside functions marked [@hot].

   The engine's inner loops (Sim.step, the scheduler backends, link
   transmission, the packet pool) are allocation-free by contract so a
   steady-state run puts no pressure on the minor heap.  The contract
   is declared with a [@hot] attribute on the binding; this rule walks
   the typed body of every [@hot] function and flags expressions that
   allocate:

   - closure construction (a [fun] in executed position — the body of
     the nested closure is NOT walked, it runs elsewhere);
   - tuple / record / non-constant-constructor / polymorphic-variant /
     non-empty array construction, and [lazy];
   - partial application, detected by the application's *result* type
     being an arrow (erased optional arguments show up as missing
     arguments in the Typedtree, so counting arguments would
     false-positive on [Metrics.incr c]) — unless the callee is a
     named value whose declared type takes no more arguments than
     were given, so [Hashtbl.find handlers k] returning a stored
     function is a full application;
   - calls to known allocating stdlib entry points (Array.make,
     Printf.sprintf, List.map, ...);
   - a float stored into a mutable [float] field of a record that is
     not all-float ([r.f <- x]): such a field holds a pointer, so the
     store boxes a freshly computed float.  An all-float record (a
     [float ref] included) is stored flat and is the fix.

   Out of scope (documented limitations): other float boxing (float
   arguments and results of calls the compiler does not inline),
   closures the compiler eliminates by inlining, and allocation hidden
   behind callees outside the known list.  [assert] bodies are skipped
   — they are debug-build-only. *)

open Typedtree

let path_is name target =
  String.equal name target || String.ends_with ~suffix:("." ^ target) name

let has_hot_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt "hot")
    attrs

(* Stdlib entry points that always allocate their result. *)
let allocating_callees =
  [
    "ref";
    "Array.make";
    "Array.init";
    "Array.copy";
    "Array.append";
    "Array.sub";
    "Array.of_list";
    "Array.to_list";
    "List.init";
    "List.map";
    "List.mapi";
    "List.filter";
    "List.filter_map";
    "List.rev";
    "List.append";
    "List.concat";
    "List.sort";
    "Printf.sprintf";
    "Format.asprintf";
    "String.concat";
    "String.sub";
    "String.make";
    "String.init";
    "Bytes.create";
    "Bytes.make";
    "Bytes.sub";
    "Buffer.create";
    "Buffer.contents";
    "Hashtbl.create";
    "Queue.create";
    "Stack.create";
  ]

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (ty, _) -> is_arrow ty
  | _ -> false

(* Parameters in a declared type's arrow spine; an abbreviation or type
   variable in result position ends the spine. *)
let rec arity ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, res, _) -> 1 + arity res
  | Types.Tpoly (ty, _) -> arity ty
  | _ -> 0

let partial_application (e : expression) args =
  is_arrow e.exp_type
  &&
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, _) ->
      arity vd.Types.val_type > List.length args
  | _ -> true

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* A float field of a record stored flat (all fields float) is unboxed;
   in any other record it is a pointer to a boxed float. *)
let boxed_float_field (lbl : Types.label_description) =
  is_float lbl.lbl_arg
  && match lbl.lbl_repres with Types.Record_float -> false | _ -> true

(* Strip the curried-parameter spine of a [@hot] binding: directly
   nested single-case unguarded Texp_functions are the parameters of
   one multi-argument function (how [let f x y = ...] is typed), not
   per-call closures.  A pattern-matching [function] body yields its
   case right-hand sides. *)
let rec bodies e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_rhs; c_guard = None; _ } ]; _ } ->
      bodies c_rhs
  | Texp_function { cases; _ } ->
      List.concat_map
        (fun c ->
          (match c.c_guard with Some g -> [ g ] | None -> []) @ [ c.c_rhs ])
        cases
  | _ -> [ e ]

let check ~path str =
  let findings = ref [] in
  let emit ~fname (loc : Location.t) what =
    findings :=
      {
        Kernel.rule = Kernel.Hot_alloc;
        file = path;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        message =
          Printf.sprintf "%s in [@hot] function `%s'; hot paths are \
                          allocation-free by contract"
            what fname;
      }
      :: !findings
  in
  let walk_hot ~fname body =
    let default = Tast_iterator.default_iterator in
    let expr it (e : expression) =
      match e.exp_desc with
      | Texp_assert _ -> ()
      | Texp_function _ -> emit ~fname e.exp_loc "closure allocation"
      | Texp_tuple _ ->
          emit ~fname e.exp_loc "tuple allocation";
          default.expr it e
      | Texp_record _ ->
          emit ~fname e.exp_loc "record allocation";
          default.expr it e
      | Texp_array (_ :: _) ->
          emit ~fname e.exp_loc "array allocation";
          default.expr it e
      | Texp_construct (_, cd, _ :: _) ->
          emit ~fname e.exp_loc
            (Printf.sprintf "allocation of constructor %s" cd.cstr_name);
          default.expr it e
      | Texp_variant (_, Some _) ->
          emit ~fname e.exp_loc "polymorphic-variant allocation";
          default.expr it e
      | Texp_lazy _ ->
          emit ~fname e.exp_loc "lazy-block allocation";
          default.expr it e
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
          let name = Path.name p in
          (match List.find_opt (path_is name) allocating_callees with
          | Some callee ->
              emit ~fname e.exp_loc
                (Printf.sprintf "call to allocating %s" callee)
          | None ->
              if partial_application e args then
                emit ~fname e.exp_loc "partial application (allocates a closure)");
          default.expr it e
      | Texp_apply (_, args) ->
          if partial_application e args then
            emit ~fname e.exp_loc "partial application (allocates a closure)";
          default.expr it e
      | Texp_setfield (_, _, lbl, _) when boxed_float_field lbl ->
          emit ~fname e.exp_loc
            (Printf.sprintf
               "float stored into field %s of a record that is not all-float \
                (boxes the float)"
               lbl.lbl_name);
          default.expr it e
      | _ -> default.expr it e
    in
    let it = { default with expr } in
    it.expr it body
  in
  let default = Tast_iterator.default_iterator in
  let value_binding it (vb : value_binding) =
    if has_hot_attr vb.vb_attributes then begin
      let fname =
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, _) -> Ident.name id
        | _ -> "<hot>"
      in
      List.iter (walk_hot ~fname) (bodies vb.vb_expr)
    end
    else default.value_binding it vb
  in
  let it = { default with value_binding } in
  it.structure it str;
  List.rev !findings
