module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality
module Obs = Lcs_obs.Obs

type outcome = {
  minima : int array;
  rounds : int;
  messages : int;
  per_part_completion : int array;
}

let bound ~congestion ~dilation ~n =
  let log2n = int_of_float (Float.ceil (log (float_of_int (max 2 n)) /. log 2.)) in
  congestion + (dilation * log2n)

(* Wrap one router run in the shared "pa" span shape (see Pa_obs). The
   quality measurement — needed for the schedule's max_delay and the
   ledger's bound — runs only on the instrumented path. *)
let instrumented obs tracer shortcut (run : Lcs_congest.Trace.tracer option -> outcome) =
  match obs with
  | None -> run tracer
  | Some _ ->
      Obs.span obs "pa" (fun () ->
          let q = Quality.measure shortcut in
          let congestion = q.Quality.congestion in
          let dilation = max 1 q.Quality.dilation in
          let max_delay = max 1 congestion in
          Obs.note obs "congestion" (Obs.Int congestion);
          Obs.note obs "dilation" (Obs.Int dilation);
          Obs.note obs "max_delay" (Obs.Int max_delay);
          let host = Shortcut.graph shortcut in
          let profile, tracer = Pa_obs.profiled obs tracer ~edges:(Graph.m host) in
          Obs.enter obs "pa.run";
          let out = run tracer in
          Pa_obs.record_epochs obs profile ~max_delay ~rounds:out.rounds;
          Obs.exit obs;
          let observed_rounds =
            Array.fold_left max 0 out.per_part_completion
          in
          let observed_rounds = if observed_rounds > 0 then observed_rounds else out.rounds in
          Pa_obs.record_ledger obs profile ~congestion
            ~predicted_rounds:(bound ~congestion ~dilation ~n:(Graph.n host))
            ~observed_rounds;
          out)

let minimum ?obs ?bandwidth ?tracer rng shortcut ~values =
  instrumented obs tracer shortcut (fun tracer ->
      let r = Packet_router.route ?bandwidth ?tracer rng shortcut ~values in
      {
        minima = r.Packet_router.per_part_minimum;
        rounds = r.Packet_router.rounds;
        messages = r.Packet_router.messages;
        per_part_completion = r.Packet_router.per_part_completion;
      })

let broadcast ?obs ?bandwidth ?tracer rng shortcut ~leaders =
  let partition = Shortcut.partition shortcut in
  let n = Graph.n (Shortcut.graph shortcut) in
  if Array.length leaders <> Shortcut.k shortcut then
    invalid_arg "Aggregate.broadcast: leaders arity";
  Array.iteri
    (fun i l ->
      if l < 0 || l >= n || Partition.part_of partition l <> i then
        invalid_arg "Aggregate.broadcast: leader not in its part")
    leaders;
  (* The leader's token is its vertex id; every other node holds the
     max-sentinel so the part minimum is exactly the leader's token. *)
  let values = Array.make n (max_int - 1) in
  Array.iter (fun l -> values.(l) <- l) leaders;
  minimum ?obs ?bandwidth ?tracer rng shortcut ~values

let sum ?obs ?bandwidth ?tracer rng shortcut ~values =
  instrumented obs tracer shortcut (fun tracer ->
      let r = Tree_router.sum ?bandwidth ?tracer rng shortcut ~values in
      {
        minima = r.Tree_router.per_part_total;
        rounds = r.Tree_router.rounds;
        messages = r.Tree_router.messages;
        per_part_completion = r.Tree_router.per_part_completion;
      })

let reference_sums shortcut ~values =
  Tree_router.reference shortcut ~values ~combine:( + ) ~identity:0

let reference_minima shortcut ~values =
  Tree_router.reference shortcut ~values ~combine:min ~identity:max_int

(* A crashed member contributes [max_int], the identity of [min]. *)
let surviving_minima shortcut ~values ~crashed =
  let values = Array.copy values in
  List.iter (fun v -> if v >= 0 && v < Array.length values then values.(v) <- max_int) crashed;
  reference_minima shortcut ~values
