module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Diameter = Lcs_graph.Diameter
module Union_find = Lcs_graph.Union_find

type report = {
  congestion : int;
  dilation : int;
  dilation_exact : bool;
  quality : int;
  max_block_number : int;
  covered : int;
  per_part_dilation : int array;
  per_part_blocks : int array;
  edge_load : int array;
}

let edge_load sc =
  let host = Shortcut.graph sc in
  let load = Array.make (Graph.m host) 0 in
  for i = 0 to Shortcut.k sc - 1 do
    Array.iter (fun e -> load.(e) <- load.(e) + 1) (Shortcut.edges_array sc i)
  done;
  load

let congestion sc = Array.fold_left max 0 (edge_load sc)

(* Host-sized scratch shared by the parts of one measurement: [local] maps
   a host vertex to its id in the current part's subgraph (-1 outside it)
   and [taken] marks the H_i edges already added. Every use clears what it
   set, so one scratch serves all k parts in O(n + m) space. *)
type scratch = { local : int array; taken : Bytes.t }

let scratch host =
  { local = Array.make (Graph.n host) (-1); taken = Bytes.make (Graph.m host) '\000' }

(* Number the vertices of G[P_i] + H_i in [s.local]: the members of P_i in
   order, then each endpoint of an H_i edge at its first appearance.
   Returns the host vertex of every local id; [release] unmaps them. *)
let number s sc i =
  let host = Shortcut.graph sc in
  let members = Partition.members (Shortcut.partition sc) i in
  Array.iteri (fun id v -> s.local.(v) <- id) members;
  let fresh = ref (Array.length members) and extra = ref [] in
  let intern v =
    if s.local.(v) < 0 then begin
      s.local.(v) <- !fresh;
      incr fresh;
      extra := v :: !extra
    end
  in
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      intern u;
      intern v)
    (Shortcut.edges_array sc i);
  if !extra = [] then members else Array.append members (Array.of_list (List.rev !extra))

let release s verts = Array.iter (fun v -> s.local.(v) <- -1) verts

(* The subgraph G[P_i] + H_i as an explicit graph. Vertices: P_i plus every
   endpoint of an H_i edge; edges: host edges internal to P_i plus H_i (an
   H_i edge internal to P_i, or repeated in H_i, is taken once). *)
let part_subgraph s sc i =
  let host = Shortcut.graph sc in
  let partition = Shortcut.partition sc in
  let verts = number s sc i in
  let local = s.local in
  let edges = ref [] in
  Array.iter
    (fun v ->
      Graph.iter_adj host v (fun w _e ->
          if v < w && Partition.part_of partition w = i then
            edges := (local.(v), local.(w)) :: !edges))
    (Partition.members partition i);
  let hi = Shortcut.edges_array sc i in
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      let internal = Partition.part_of partition u = i && Partition.part_of partition v = i in
      if not (internal || Bytes.get s.taken e <> '\000') then begin
        Bytes.set s.taken e '\001';
        edges := (local.(u), local.(v)) :: !edges
      end)
    hi;
  Array.iter (fun e -> Bytes.set s.taken e '\000') hi;
  let sub = Graph.create ~n:(Array.length verts) (List.rev !edges) in
  release s verts;
  sub

(* [(diameter, exact)]: the diameter of G[P_i] + H_i when the subgraph has
   at most [exact_limit] vertices, else the double-sweep lower bound. *)
let measure_dilation s ?(exact_limit = 4096) sc i =
  let sub = part_subgraph s sc i in
  (Diameter.of_graph ~exact_limit sub, Graph.n sub <= exact_limit)

let part_dilation ?exact_limit sc i =
  fst (measure_dilation (scratch (Shortcut.graph sc)) ?exact_limit sc i)

let dilation ?exact_limit sc =
  let s = scratch (Shortcut.graph sc) in
  let best = ref 0 in
  for i = 0 to Shortcut.k sc - 1 do
    if Shortcut.is_covered sc i then begin
      let d, _ = measure_dilation s ?exact_limit sc i in
      if d > !best then best := d
    end
  done;
  !best

(* Union-find over the involved vertices, joined by H_i edges only. *)
let count_blocks s sc i =
  let host = Shortcut.graph sc in
  let verts = number s sc i in
  let uf = Union_find.create (Array.length verts) in
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      ignore (Union_find.union uf s.local.(u) s.local.(v)))
    (Shortcut.edges_array sc i);
  release s verts;
  Union_find.count uf

let part_blocks sc i = count_blocks (scratch (Shortcut.graph sc)) sc i

type part_traffic = {
  part : int;
  hi_edges : int;
  internal_edges : int;
  words : float;
  share : float;
  max_load : int;
}

(* Attribute a per-edge word count (a [Trace.Profile.edge_words] array) to
   parts. Every edge of G[P_i] + H_i contributes to part i; an edge used by
   several parts (H-set overlap, or an internal edge another part shortcuts
   through) is split evenly among its users, so the per-part words sum to
   the total words on attributed edges. *)
let traffic sc ~edge_words =
  let host = Shortcut.graph sc in
  let partition = Shortcut.partition sc in
  let m = Graph.m host in
  if Array.length edge_words <> m then
    invalid_arg "Quality.traffic: edge_words length <> Graph.m";
  let k = Shortcut.k sc in
  let load = edge_load sc in
  (* users(e) = H-set multiplicity + 1 if e is internal to some part. *)
  let users = Array.copy load in
  for e = 0 to m - 1 do
    let u, v = Graph.edge_endpoints host e in
    let pu = Partition.part_of partition u in
    if pu >= 0 && pu = Partition.part_of partition v then
      users.(e) <- users.(e) + 1
  done;
  let total = Array.fold_left (fun a w -> a +. float_of_int w) 0. edge_words in
  Array.init k (fun i ->
      let words = ref 0. in
      let internal_edges = ref 0 in
      let max_load = ref 0 in
      Array.iter
        (fun v ->
          Graph.iter_adj host v (fun w e ->
              if v < w && Partition.part_of partition w = i then begin
                incr internal_edges;
                words := !words +. (float_of_int edge_words.(e) /. float_of_int users.(e))
              end))
        (Partition.members partition i);
      let hi = Shortcut.edges_array sc i in
      Array.iter
        (fun e ->
          if load.(e) > !max_load then max_load := load.(e);
          words := !words +. (float_of_int edge_words.(e) /. float_of_int users.(e)))
        hi;
      {
        part = i;
        hi_edges = Array.length hi;
        internal_edges = !internal_edges;
        words = !words;
        share = (if total > 0. then !words /. total else 0.);
        max_load = !max_load;
      })

let traffic_to_json tr =
  Lcs_util.Json.List
    (Array.to_list
       (Array.map
          (fun p ->
            Lcs_util.Json.Obj
              [
                ("part", Lcs_util.Json.Int p.part);
                ("hi_edges", Lcs_util.Json.Int p.hi_edges);
                ("internal_edges", Lcs_util.Json.Int p.internal_edges);
                ("words", Lcs_util.Json.Float p.words);
                ("share", Lcs_util.Json.Float p.share);
                ("max_load", Lcs_util.Json.Int p.max_load);
              ])
          tr))

let measure ?exact_limit sc =
  let k = Shortcut.k sc in
  let s = scratch (Shortcut.graph sc) in
  let per_part_dilation = Array.make k (-1) in
  let per_part_blocks = Array.make k (-1) in
  let covered = ref 0 and dilation_exact = ref true in
  for i = 0 to k - 1 do
    if Shortcut.is_covered sc i then begin
      incr covered;
      let d, exact = measure_dilation s ?exact_limit sc i in
      per_part_dilation.(i) <- d;
      if not exact then dilation_exact := false;
      per_part_blocks.(i) <- count_blocks s sc i
    end
  done;
  let load = edge_load sc in
  let congestion = Array.fold_left max 0 load in
  let dilation = Array.fold_left max 0 per_part_dilation in
  {
    congestion;
    dilation;
    dilation_exact = !dilation_exact;
    quality = congestion + dilation;
    max_block_number = Array.fold_left max 0 per_part_blocks;
    covered = !covered;
    per_part_dilation;
    per_part_blocks;
    edge_load = load;
  }

let dilation_bound r = if r.dilation_exact then r.dilation else 2 * r.dilation

let pp_report ppf r =
  let rel = if r.dilation_exact then "=" else ">=" in
  Format.fprintf ppf
    "quality%s%d (congestion=%d, dilation%s%d), blocks<=%d, covered=%d"
    rel r.quality r.congestion rel r.dilation r.max_block_number r.covered
