module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality
module Pqueue = Lcs_util.Pqueue
module Trace = Lcs_congest.Trace

type policy = Random_delay | Fifo | Static_order

let delays policy rng ~parts ~max_delay =
  match policy with
  | Random_delay -> Array.init parts (fun _ -> Lcs_util.Rng.int rng (max 1 max_delay))
  | Fifo -> Array.make parts 0
  | Static_order -> Array.init parts (fun i -> i)

let epochs ~max_delay ~rounds =
  let len = max 1 max_delay in
  let acc = ref [] in
  let start = ref 1 in
  while !start <= rounds do
    let stop = min rounds (!start + len - 1) in
    acc := (!start, stop) :: !acc;
    start := stop + 1
  done;
  List.rev !acc

let to_string = function
  | Random_delay -> "random-delay"
  | Fifo -> "fifo"
  | Static_order -> "static-order"

(* --- The shared-capacity serving loop ------------------------------------ *)

(* Edge-direction queues keyed edge*2 + dir, dir 0 = from the edge's first
   endpoint; [nonempty] holds the keys with backlog. [remaining.(i)] counts
   part [i]'s members still without their answer. *)
type 'a queues = {
  host : Graph.t;
  priority : int array;
  tracer : Trace.tracer option;
  table : (int, 'a Pqueue.t) Hashtbl.t;
  nonempty : (int, unit) Hashtbl.t;
  remaining : int array;
  completion : int array;
  mutable incomplete : int;
  mutable round : int;
  mutable max_queue : int;
}

type served = {
  rounds : int;
  messages : int;
  max_queue : int;
  per_part_completion : int array;
}

let queues ~tracer ~max_delay policy rng shortcut =
  let partition = Shortcut.partition shortcut in
  let k = Partition.k partition in
  let max_delay =
    match max_delay with
    | Some d -> max 1 d
    | None -> max 1 (Quality.congestion shortcut)
  in
  let priority = delays policy rng ~parts:k ~max_delay in
  (* The router is its own message source: it owns the ambient Cause ids
     for the run (0 rides along when untraced). *)
  Trace.Cause.start_run ~enabled:(tracer <> None);
  {
    host = Partition.graph partition;
    priority;
    tracer;
    table = Hashtbl.create 256;
    nonempty = Hashtbl.create 256;
    remaining = Array.init k (Partition.size partition);
    completion = Array.make k (-1);
    incomplete = k;
    round = 0;
    max_queue = 0;
  }

let push q ~part ~edge ~from entry =
  let u, _v = Graph.edge_endpoints q.host edge in
  let key = (edge * 2) + if from = u then 0 else 1 in
  let pq =
    match Hashtbl.find_opt q.table key with
    | Some pq -> pq
    | None ->
        let pq = Pqueue.create () in
        Hashtbl.add q.table key pq;
        pq
  in
  Pqueue.push pq ~priority:q.priority.(part) entry;
  if Pqueue.length pq > q.max_queue then q.max_queue <- Pqueue.length pq;
  Hashtbl.replace q.nonempty key ()

let member_done q part =
  q.remaining.(part) <- q.remaining.(part) - 1;
  if q.remaining.(part) = 0 then begin
    q.completion.(part) <- q.round;
    q.incomplete <- q.incomplete - 1
  end

let serve q ~bandwidth ~max_rounds ~limit ~label ~arrive =
  let messages = ref 0 in
  while q.incomplete > 0 do
    if q.round >= max_rounds then failwith limit;
    q.round <- q.round + 1;
    let round = q.round in
    (match q.tracer with
    | None -> ()
    | Some t -> t (Trace.Round_start { round; live = q.incomplete }));
    let round_max = ref 0 in
    (* Serve every backlogged edge-direction: up to [bandwidth] messages.
       Arrivals apply after all serving, in this fold's order. *)
    let keys = Hashtbl.fold (fun key () acc -> key :: acc) q.nonempty [] in
    let arrivals = ref [] in
    List.iter
      (fun key ->
        let pq = Hashtbl.find q.table key in
        let served = min bandwidth (Pqueue.length pq) in
        messages := !messages + served;
        if served > !round_max then round_max := served;
        for _ = 1 to served do
          match Pqueue.pop_min pq with
          | None -> ()
          | Some (_prio, entry) ->
              let id =
                match q.tracer with
                | None -> 0
                | Some t ->
                    let e = key / 2 and dir = key mod 2 in
                    let u, v = Graph.edge_endpoints q.host e in
                    let part, cause, phase = label entry in
                    let id = Trace.Cause.fresh_id () in
                    t
                      (Trace.Send
                         {
                           round;
                           src = (if dir = 0 then u else v);
                           dst = (if dir = 0 then v else u);
                           edge = e;
                           words = 1;
                           id;
                           parents = (if cause > 0 then [ cause ] else []);
                           part;
                           phase;
                         });
                    id
              in
              arrivals := (entry, id, key) :: !arrivals
        done;
        if Pqueue.is_empty pq then Hashtbl.remove q.nonempty key)
      keys;
    List.iter
      (fun (entry, id, key) ->
        let e = key / 2 in
        let u, v = Graph.edge_endpoints q.host e in
        arrive entry ~id ~edge:e ~dest:(if key mod 2 = 0 then v else u))
      !arrivals;
    match q.tracer with
    | None -> ()
    | Some t -> t (Trace.Round_end { round; max_edge_load = !round_max })
  done;
  {
    rounds = q.round;
    messages = !messages;
    max_queue = q.max_queue;
    per_part_completion = q.completion;
  }
