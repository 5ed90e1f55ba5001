(* Domain-local hierarchical self-profiler.

   A span names a component ("engine", "link", "sigma", ...); nesting
   builds a tree keyed by the call path, so the same component under
   two parents is two nodes and recursion never double-counts.  Each
   node accumulates wall time (through Profile.now, the sanctioned
   host-clock site), call counts and minor-heap allocation; self time
   is total time minus the time spent in direct child spans, so the
   self times of a snapshot sum exactly to the root spans' totals.

   Everything is domain-local (Domain.DLS): concurrent batch workers
   never contend, and a worker's tree dies with its domain — callers
   snapshot before returning, as Runner does.

   Zero cost when disabled: [span] reads one domain-local flag and
   returns the [disabled] token; [finish disabled] is one compare.  No
   closure, no allocation, no clock read.  When enabled, a span on a
   known call path allocates nothing either (unboxed clock reads, flat
   float accumulators), so the minor words a node reports are its
   component's own, not the profiler's.  The lint prof-span rule
   keeps span sites inside lib/ behind .mli interfaces. *)

(* All-float, so the per-span accumulations are unboxed stores. *)
type totals = {
  mutable total_s : float;
  mutable self_s : float;
  mutable alloc_w : float;  (** minor words allocated, children excluded *)
}

type node = {
  name : string;
  parent : int;  (** node index; -1 for a root-level span *)
  depth : int;
  mutable first_child : int;
  mutable next_sibling : int;
  mutable count : int;
  acc : totals;
}

type state = {
  mutable on : bool;
  mutable nodes : node array;
  mutable n_nodes : int;
  mutable roots : int;  (** head of the depth-0 sibling chain; -1 = none *)
  (* The frame stack lives in parallel arrays so pushing a span
     allocates nothing once the high-water depth has been reached. *)
  mutable fr_node : int array;
  mutable fr_t0 : float array;
  mutable fr_w0 : float array;
  mutable fr_child_s : float array;
  mutable fr_child_w : float array;
  mutable depth : int;
}

let nil = -1

let dummy_node () =
  {
    name = "";
    parent = nil;
    depth = 0;
    first_child = nil;
    next_sibling = nil;
    count = 0;
    acc = { total_s = 0.; self_s = 0.; alloc_w = 0. };
  }

let state_key =
  Domain.DLS.new_key (fun () ->
      {
        on = false;
        nodes = [||];
        n_nodes = 0;
        roots = nil;
        fr_node = [||];
        fr_t0 = [||];
        fr_w0 = [||];
        fr_child_s = [||];
        fr_child_w = [||];
        depth = 0;
      })

let state () = Domain.DLS.get state_key

let enabled () = (state ()).on

let reset_state st =
  st.nodes <- [||];
  st.n_nodes <- 0;
  st.roots <- nil;
  st.depth <- 0

let reset () = reset_state (state ())

let enable () =
  let st = state () in
  reset_state st;
  st.on <- true

let disable () =
  (* The tree survives so a caller can disable, then snapshot — Runner
     snapshots first anyway; [enable]/[reset] clear it. *)
  (state ()).on <- false

(* --- span bookkeeping --------------------------------------------------- *)

let add_node st ~parent ~depth name =
  if st.n_nodes = Array.length st.nodes then begin
    let cap = Stdlib.max 16 (2 * Array.length st.nodes) in
    let grown = Array.make cap (dummy_node ()) in
    Array.blit st.nodes 0 grown 0 st.n_nodes;
    st.nodes <- grown
  end;
  let i = st.n_nodes in
  st.nodes.(i) <-
    {
      name;
      parent;
      depth;
      first_child = nil;
      next_sibling = nil;
      count = 0;
      acc = { total_s = 0.; self_s = 0.; alloc_w = 0. };
    };
  st.n_nodes <- i + 1;
  i

let rec scan st name i =
  if i = nil then nil
  else if String.equal st.nodes.(i).name name then i
  else scan st name st.nodes.(i).next_sibling

(* Find [name] among [parent]'s children (root chain when parent is
   nil), creating it on first use.  Linear scan: component fan-out is a
   handful of names, and a hit allocates nothing. *)
let find_or_add st parent name =
  let head = if parent = nil then st.roots else st.nodes.(parent).first_child in
  match scan st name head with
  | i when i <> nil -> i
  | _ ->
      let depth = if parent = nil then 0 else st.nodes.(parent).depth + 1 in
      let i = add_node st ~parent ~depth name in
      (* Prepend, then restore creation order at snapshot time. *)
      if parent = nil then begin
        st.nodes.(i).next_sibling <- st.roots;
        st.roots <- i
      end
      else begin
        st.nodes.(i).next_sibling <- st.nodes.(parent).first_child;
        st.nodes.(parent).first_child <- i
      end;
      i

type span = int
(* A token is the frame-stack depth after pushing (1-based); 0 is the
   disabled token, so [finish] on it is a single compare. *)

let disabled : span = 0

let span name =
  let st = state () in
  if not st.on then disabled
  else begin
    let parent = if st.depth = 0 then nil else st.fr_node.(st.depth - 1) in
    let node = find_or_add st parent name in
    if st.depth = Array.length st.fr_node then begin
      let cap = Stdlib.max 16 (2 * Array.length st.fr_node) in
      let grow a filler =
        let g = Array.make cap filler in
        Array.blit a 0 g 0 st.depth;
        g
      in
      st.fr_node <- grow st.fr_node 0;
      st.fr_t0 <- grow st.fr_t0 0.;
      st.fr_w0 <- grow st.fr_w0 0.;
      st.fr_child_s <- grow st.fr_child_s 0.;
      st.fr_child_w <- grow st.fr_child_w 0.
    end;
    let i = st.depth in
    st.fr_node.(i) <- node;
    st.fr_child_s.(i) <- 0.;
    st.fr_child_w.(i) <- 0.;
    st.fr_w0.(i) <- Gc.minor_words ();
    st.fr_t0.(i) <- Profile.now ();
    st.depth <- i + 1;
    i + 1
  end

let pop_frame st =
  let i = st.depth - 1 in
  let dt = Profile.now () -. st.fr_t0.(i) in
  let dw = Gc.minor_words () -. st.fr_w0.(i) in
  let node = st.nodes.(st.fr_node.(i)) in
  node.count <- node.count + 1;
  node.acc.total_s <- node.acc.total_s +. dt;
  node.acc.self_s <- node.acc.self_s +. (dt -. st.fr_child_s.(i));
  node.acc.alloc_w <- node.acc.alloc_w +. (dw -. st.fr_child_w.(i));
  st.depth <- i;
  if i > 0 then begin
    st.fr_child_s.(i - 1) <- st.fr_child_s.(i - 1) +. dt;
    st.fr_child_w.(i - 1) <- st.fr_child_w.(i - 1) +. dw
  end

let finish token =
  if token <> disabled then begin
    let st = state () in
    (* Pop every frame the span opened over, so a missed inner finish
       (an exception path) charges the inner time to its own node
       rather than corrupting the stack. *)
    while st.depth >= token do
      pop_frame st
    done
  end

let with_span name f =
  let st = state () in
  if not st.on then f ()
  else begin
    let t = span name in
    Fun.protect ~finally:(fun () -> finish t) f
  end

(* --- snapshots ---------------------------------------------------------- *)

type entry = {
  path : string list;  (** root-first component path *)
  depth : int;
  count : int;
  total_s : float;
  self_s : float;
  alloc_w : float;
}

let snapshot () =
  let st = state () in
  let rec path_of i acc =
    if i = nil then acc else path_of st.nodes.(i).parent (st.nodes.(i).name :: acc)
  in
  (* Sibling chains are prepended, so reverse each chain to recover
     creation order — which is deterministic for a deterministic run. *)
  let children_of head =
    let rec collect i acc =
      if i = nil then acc else collect st.nodes.(i).next_sibling (i :: acc)
    in
    collect head []
  in
  let rec walk i acc =
    let n = st.nodes.(i) in
    let e =
      {
        path = path_of i [];
        depth = n.depth;
        count = n.count;
        total_s = n.acc.total_s;
        self_s = n.acc.self_s;
        alloc_w = n.acc.alloc_w;
      }
    in
    List.fold_left (fun acc c -> walk c acc) (e :: acc) (children_of n.first_child)
  in
  List.rev (List.fold_left (fun acc r -> walk r acc) [] (children_of st.roots))

let root_total entries =
  List.fold_left
    (fun acc e -> if e.depth = 0 then acc +. e.total_s else acc)
    0. entries

let self_total entries =
  List.fold_left (fun acc e -> acc +. e.self_s) 0. entries

(* --- rendering ---------------------------------------------------------- *)

let path_string e = String.concat ";" e.path

let to_markdown ?wall_s entries =
  let buf = Buffer.create 1024 in
  let total = match wall_s with Some w when w > 0. -> w | _ -> root_total entries in
  Buffer.add_string buf
    "| component | count | total (s) | self (s) | self % | alloc (Mw) |\n";
  Buffer.add_string buf "|---|---|---|---|---|---|\n";
  List.iter
    (fun e ->
      let indent = String.concat "" (List.init e.depth (fun _ -> "&nbsp;&nbsp;")) in
      let name = match List.rev e.path with name :: _ -> name | [] -> "?" in
      Buffer.add_string buf
        (Printf.sprintf "| %s`%s` | %d | %.6f | %.6f | %.1f | %.3f |\n" indent
           name e.count e.total_s e.self_s
           (if total > 0. then 100. *. e.self_s /. total else 0.)
           (e.alloc_w /. 1e6)))
    entries;
  (match wall_s with
  | Some w when w > 0. ->
      Buffer.add_string buf
        (Printf.sprintf
           "\nprofiled spans cover %.1f%% of the %.6f s measured wall time\n"
           (100. *. self_total entries /. w)
           w)
  | _ -> ());
  Buffer.contents buf

(* Folded stacks: one "a;b;c <self microseconds>" line per node, the
   input format of flamegraph.pl / speedscope / inferno. *)
let folded entries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let us = int_of_float (Float.round (e.self_s *. 1e6)) in
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" (path_string e) (Stdlib.max 0 us)))
    entries;
  Buffer.contents buf

let to_json entries =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("path", Json.List (List.map (fun s -> Json.String s) e.path));
             ("count", Json.Int e.count);
             ("total_s", Json.Float e.total_s);
             ("self_s", Json.Float e.self_s);
             ("alloc_w", Json.Float e.alloc_w);
           ])
       entries)
