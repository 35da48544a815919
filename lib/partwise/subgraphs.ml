module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut

type t = (int, (int * int) list) Hashtbl.t array

let build shortcut i =
  let host = Shortcut.graph shortcut in
  let partition = Shortcut.partition shortcut in
  let adj : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  let add_edge e u v =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      let push a b =
        let old = match Hashtbl.find_opt adj a with Some l -> l | None -> [] in
        Hashtbl.replace adj a ((e, b) :: old)
      in
      push u v;
      push v u
    end
  in
  Array.iter
    (fun v ->
      (* Members always appear, even when isolated in S_i. *)
      if not (Hashtbl.mem adj v) then Hashtbl.replace adj v [];
      Graph.iter_adj host v (fun w e ->
          if v < w && Partition.part_of partition w = i then add_edge e v w))
    (Partition.members partition i);
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      add_edge e u v)
    (Shortcut.edges_array shortcut i);
  adj

let of_shortcut shortcut = Array.init (Shortcut.k shortcut) (build shortcut)
let adjacency t i = t.(i)
let vertices t i = Hashtbl.fold (fun v _ acc -> v :: acc) t.(i) []

let spanning_tree t i ~root =
  let adj = t.(i) in
  if not (Hashtbl.mem adj root) then invalid_arg "Subgraphs.spanning_tree: root";
  let parent = Hashtbl.create (Hashtbl.length adj) in
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    let nbrs = match Hashtbl.find_opt adj v with Some l -> l | None -> [] in
    List.iter
      (fun (e, w) ->
        if w <> root && not (Hashtbl.mem parent w) then begin
          Hashtbl.replace parent w (v, e);
          Queue.add w queue
        end)
      nbrs
  done;
  parent
