(* Tests for part-wise aggregation: the packet router and the PA API. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let random_connected_graph seed ~n ~extra =
  let rng = Rng.create seed in
  let b = Builder.create ~n in
  for v = 1 to n - 1 do
    Builder.add_edge b (Rng.int rng v) v
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 20 * extra do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Builder.mem_edge b u v) then begin
      Builder.add_edge b u v;
      incr added
    end
  done;
  Builder.graph b

let aggregation_correct =
  QCheck.Test.make ~name:"PA minimum = reference minimum" ~count:25
    QCheck.(triple (int_bound 1000) (int_range 4 60) (int_range 1 8))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let tree = Bfs.tree g ~root:0 in
      let b = Boost.full partition ~tree in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 100_000) in
      let out = Aggregate.minimum (Rng.create (seed + 9)) b.Boost.shortcut ~values in
      out.Aggregate.minima = Aggregate.reference_minima b.Boost.shortcut ~values)

let aggregation_with_empty_shortcut =
  QCheck.Test.make ~name:"PA correct with empty shortcuts too" ~count:15
    QCheck.(triple (int_bound 1000) (int_range 4 40) (int_range 1 6))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let sc = Shortcut.empty partition in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Aggregate.minimum (Rng.create (seed + 9)) sc ~values in
      out.Aggregate.minima = Aggregate.reference_minima sc ~values)

let wheel_speedup () =
  (* Section 2's motivating example: the rim of a wheel has diameter Θ(n)
     but the graph has diameter 2. PA without a shortcut needs Θ(n) rounds;
     with the Theorem 3.1 shortcut it needs O(log n)-ish. *)
  let n = 128 in
  let g = Generators.wheel n in
  let partition = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
  let tree = Bfs.tree g ~root:0 in
  let values = Array.init n (fun v -> (v * 37) mod 1009) in
  let bare = Aggregate.minimum (Rng.create 1) (Shortcut.empty partition) ~values in
  let boosted = Boost.full partition ~tree in
  let fast = Aggregate.minimum (Rng.create 1) boosted.Boost.shortcut ~values in
  check Alcotest.bool "bare PA linear in n" true (bare.Aggregate.rounds >= (n - 1) / 4);
  check Alcotest.bool "shortcut PA constant-ish" true (fast.Aggregate.rounds <= 16);
  check Alcotest.bool "same answers" true
    (bare.Aggregate.minima = fast.Aggregate.minima)

let rounds_within_schedule_bound =
  QCheck.Test.make ~name:"PA rounds <= c + d log n (with slack)" ~count:15
    QCheck.(triple (int_bound 1000) (int_range 8 60) (int_range 2 8))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let tree = Bfs.tree g ~root:0 in
      let b = Boost.full partition ~tree in
      let r = Quality.measure b.Boost.shortcut in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Aggregate.minimum (Rng.create (seed + 9)) b.Boost.shortcut ~values in
      let bound =
        Aggregate.bound ~congestion:r.Quality.congestion ~dilation:(max 1 r.Quality.dilation) ~n
      in
      (* The flooding router is within a small constant of the schedule
         bound; 4x slack keeps the test robust while still meaningful. *)
      out.Aggregate.rounds <= (4 * bound) + 8)

let broadcast_delivers_leader_token () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let partition = Partition.grid_rows g ~rows:5 ~cols:5 in
  let tree = Bfs.tree g ~root:0 in
  let b = Boost.full partition ~tree in
  let leaders = Array.init 5 (fun i -> i * 5) in
  let out = Aggregate.broadcast (Rng.create 2) b.Boost.shortcut ~leaders in
  Array.iteri
    (fun i l -> check Alcotest.int "token is leader id" l out.Aggregate.minima.(i))
    leaders

let broadcast_rejects_foreign_leader () =
  let g = Generators.grid ~rows:3 ~cols:3 in
  let partition = Partition.grid_rows g ~rows:3 ~cols:3 in
  let sc = Shortcut.empty partition in
  Alcotest.check_raises "leader must be in its part"
    (Invalid_argument "Aggregate.broadcast: leader not in its part") (fun () ->
      ignore (Aggregate.broadcast (Rng.create 1) sc ~leaders:[| 0; 1; 6 |]))

let router_detects_disconnected_subgraph () =
  (* A part consisting of two path segments joined by NO shortcut edge can
     never complete; the router must fail fast at its round limit. *)
  let g = Generators.path 6 in
  let partition = Partition.of_parts g [ [ 0; 1; 2; 3; 4; 5 ] ] in
  (* Break the part's own subgraph by giving it no shortcut and cutting the
     middle edge out of the simulation via a custom value assignment is not
     possible — instead build a partition whose part is connected but whose
     shortcut-only helper edge is required and absent. Simpler: a shortcut
     whose subgraph is fine completes; verify the failure path with an
     unreachable configuration built from a disconnected *helper* set. *)
  let sc = Shortcut.empty partition in
  let values = Array.init 6 (fun v -> v) in
  let out = Packet_router.route (Rng.create 1) sc ~values in
  check Alcotest.int "whole path completes" 0 out.Packet_router.per_part_minimum.(0)

let router_bandwidth_speedup () =
  (* Higher per-edge bandwidth can only help. *)
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let tree = Bfs.tree g ~root:0 in
  let b = Boost.full partition ~tree in
  let values = Array.init 36 (fun v -> (v * 31) mod 97) in
  let slow = Packet_router.route ~bandwidth:1 (Rng.create 4) b.Boost.shortcut ~values in
  let fast = Packet_router.route ~bandwidth:8 (Rng.create 4) b.Boost.shortcut ~values in
  check Alcotest.bool "bandwidth monotone" true
    (fast.Packet_router.rounds <= slow.Packet_router.rounds)

(* --- Tree_router (sum aggregation) ---------------------------------------- *)

let sum_aggregation_correct =
  QCheck.Test.make ~name:"tree-sum PA = reference sums" ~count:20
    QCheck.(triple (int_bound 1000) (int_range 4 50) (int_range 1 8))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let tree = Bfs.tree g ~root:0 in
      let sc = (Boost.full partition ~tree).Boost.shortcut in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Aggregate.sum (Rng.create (seed + 9)) sc ~values in
      out.Aggregate.minima = Aggregate.reference_sums sc ~values)

let sum_with_empty_shortcut =
  QCheck.Test.make ~name:"tree-sum correct with empty shortcuts" ~count:15
    QCheck.(triple (int_bound 1000) (int_range 4 40) (int_range 1 6))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let sc = Shortcut.empty partition in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Aggregate.sum (Rng.create (seed + 9)) sc ~values in
      out.Aggregate.minima = Aggregate.reference_sums sc ~values)

let tree_router_generic_combine () =
  (* Max through the generic interface. *)
  let g = Generators.grid ~rows:4 ~cols:4 in
  let partition = Partition.grid_rows g ~rows:4 ~cols:4 in
  let sc = Shortcut.empty partition in
  let values = Array.init 16 (fun v -> (v * 31) mod 17) in
  let out =
    Tree_router.aggregate (Rng.create 3) sc ~values ~combine:max ~identity:min_int
  in
  let expected = Tree_router.reference sc ~values ~combine:max ~identity:min_int in
  check Alcotest.bool "max matches" true (out.Tree_router.per_part_total = expected)

let tree_router_message_economy () =
  (* Exactly 2(|S_i|-1) messages per part when nothing else competes. *)
  let g = Generators.path 10 in
  let partition = Partition.whole g in
  let sc = Shortcut.empty partition in
  let values = Array.init 10 (fun v -> v) in
  let out = Tree_router.sum (Rng.create 2) sc ~values in
  check Alcotest.int "2(n-1) messages" 18 out.Tree_router.messages;
  check Alcotest.int "total" 45 out.Tree_router.per_part_total.(0)

(* --- Sim_aggregate (full-simulator PA) -------------------------------------- *)

let sim_aggregate_matches_router =
  QCheck.Test.make ~name:"simulator PA = router PA (answers + sane rounds)" ~count:10
    QCheck.(triple (int_bound 1000) (int_range 6 36) (int_range 1 6))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let tree = Bfs.tree g ~root:0 in
      let sc = (Boost.full partition ~tree).Boost.shortcut in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 100_000) in
      let sim = Sim_aggregate.minimum (Rng.create (seed + 9)) sc ~values in
      let router = Aggregate.minimum (Rng.create (seed + 9)) sc ~values in
      sim.Sim_aggregate.minima = router.Aggregate.minima
      && sim.Sim_aggregate.completion_round > 0 = (router.Aggregate.rounds > 0))

let sim_aggregate_wheel () =
  (* The flagship instance, fully inside the enforced model. *)
  let n = 128 in
  let g = Generators.wheel n in
  let partition = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
  let tree = Bfs.tree g ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let values = Array.init n (fun v -> (v * 37) mod 1009) in
  let out = Sim_aggregate.minimum (Rng.create 4) sc ~values in
  check Alcotest.bool "fast completion" true (out.Sim_aggregate.completion_round <= 24);
  check Alcotest.bool "bandwidth respected" true
    (out.Sim_aggregate.stats.Simulator.max_edge_load <= 1)

(* --- Pinned PA outputs ------------------------------------------------------- *)

(* Every observable of a simulated PA run, rendered as [key=value] lines: the
   answers, the round and message accounting, the exact per-part dilation,
   and digests of the Trace.Profile JSON and of the full event stream (which
   carries the causal ids). The expected lines are fixed: a change to the PA
   program or to the dilation measurement must reproduce them byte for
   byte. *)
let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
let digest j = Digest.to_hex (Digest.string (Json.to_string j))

let stats_line (s : Simulator.stats) =
  Printf.sprintf "stats=%d,%d,%d,%d" s.Simulator.rounds s.Simulator.messages
    s.Simulator.words s.Simulator.max_edge_load

let traced_run sc run =
  let profile = Trace.Profile.create ~edges:(Graph.m (Shortcut.graph sc)) () in
  let recorder = Trace.Recorder.create ~cap:0 () in
  let tracer = Trace.tee [ Trace.Profile.tracer profile; Trace.Recorder.tracer recorder ] in
  let out = run tracer in
  ( out,
    [
      "profile=" ^ digest (Trace.Profile.to_json profile);
      "events=" ^ digest (Trace.Recorder.to_json recorder);
    ] )

let pa_fingerprint sc ~values ~seed =
  let line (r : Sim_aggregate.result) =
    [
      "minima=" ^ ints r.Sim_aggregate.minima;
      Printf.sprintf "rounds=%d" r.Sim_aggregate.rounds;
      Printf.sprintf "completion_round=%d" r.Sim_aggregate.completion_round;
      Printf.sprintf "messages=%d" r.Sim_aggregate.messages;
      stats_line r.Sim_aggregate.stats;
    ]
  in
  let plain = Sim_aggregate.minimum (Rng.create seed) sc ~values in
  let traced, digests =
    traced_run sc (fun tracer -> Sim_aggregate.minimum ~tracer (Rng.create seed) sc ~values)
  in
  check (Alcotest.list Alcotest.string) "tracing is observational" (line plain) (line traced);
  line plain
  @ [ "per_part_dilation=" ^ ints (Quality.measure sc).Quality.per_part_dilation ]
  @ digests

(* The two pinned hosts: the boosted grid-row shortcut of grid12 and the
   boosted Voronoi-6 shortcut of a 150-vertex 3-tree, with their values. *)
let grid12_rows () =
  let g = Generators.grid ~rows:12 ~cols:12 in
  let partition = Partition.grid_rows g ~rows:12 ~cols:12 in
  ( (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut,
    Array.init 144 (fun v -> (v * 7919) mod 10007) )

let ktree_voronoi6 () =
  let g = Generators.k_tree (Rng.create 5) ~k:3 ~n:150 in
  let partition = Partition.voronoi g (Rng.create 6) ~parts:6 in
  ( (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut,
    Array.init 150 (fun v -> (v * 7919) mod 10007) )

let pinned_grid_rows () =
  let sc, values = grid12_rows () in
  check (Alcotest.list Alcotest.string) "grid 12, rows"
    [
      "minima=0,356,1145,279,1068,202,991,125,914,48,837,404";
      "rounds=785";
      "completion_round=25";
      "messages=3453";
      "stats=785,3453,3453,1";
      "per_part_dilation=11,12,13,14,15,16,17,18,19,20,21,22";
      "profile=2345c89d56194ada285271da8da4b70b";
      "events=db94c156f10fbea7d72de8c0115cef51";
    ]
    (pa_fingerprint sc ~values ~seed:21)

let pinned_ktree_voronoi () =
  let sc, values = ktree_voronoi6 () in
  check (Alcotest.list Alcotest.string) "3-tree, voronoi 6"
    [
      "minima=48,0,404,6389,125,4580";
      "rounds=217";
      "completion_round=9";
      "messages=2722";
      "stats=217,2722,2722,1";
      "per_part_dilation=5,5,3,2,4,2";
      "profile=c22a31a4605188e7a660b0053b9a1a5d";
      "events=131ac1de8abe796a27dd4afc00169c86";
    ]
    (pa_fingerprint sc ~values ~seed:22)

(* plans/light_loss.json with the 8x8 grid-rows shortcut it is pinned on. *)
let light_loss_grid8 () =
  let plan =
    match
      Fault.load_plan
        (Filename.concat (Filename.dirname Sys.executable_name) "../plans/light_loss.json")
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let g = Generators.grid ~rows:8 ~cols:8 in
  let partition = Partition.grid_rows g ~rows:8 ~cols:8 in
  ( plan,
    (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut,
    Array.init 64 (fun v -> (v * 7919) mod 10007) )

(* The ARQ-wrapped program under plans/light_loss.json: Reliable.wrap holds
   the PA state across retransmissions, so this pins the mutable state under
   loss, duplication and reordering. *)
let pinned_reliable_light_loss () =
  let plan, sc, values = light_loss_grid8 () in
  let outcome, digests =
    traced_run sc (fun tracer ->
        Sim_aggregate.minimum_outcome ~reliable:true ~tracer ~faults:(Fault.compile plan)
          (Rng.create 23) sc ~values)
  in
  let kind, r =
    match outcome with
    | Outcome.Complete r -> ("complete", r)
    | Outcome.Degraded (r, _) -> ("degraded", r)
  in
  check (Alcotest.list Alcotest.string) "grid 8, rows, light_loss, reliable"
    [
      "outcome=complete";
      "minima=0,789,356,1578,712,279,1501,635";
      "diverged=";
      "completion_round=63";
      "retransmissions=104";
      "stats=3240,1987,1987,1";
      "profile=dffae4e1e8f99ea05bf77347738f3a78";
      "events=9c3189b0ddf311dd36b06fd4ded8461f";
    ]
    ([
       "outcome=" ^ kind;
       "minima=" ^ ints r.Sim_aggregate.minima;
       "diverged=" ^ ints (Array.of_list r.Sim_aggregate.diverged);
       Printf.sprintf "completion_round=%d" r.Sim_aggregate.completion_round;
       Printf.sprintf "retransmissions=%d" r.Sim_aggregate.retransmissions;
       stats_line r.Sim_aggregate.ostats;
     ]
    @ digests)

(* The reliable light_loss run idles for thousands of rounds after its
   last transmission. Its "pa.epoch" spans stop at the last epoch with
   traffic, and the idle tail still counts in the rolled-up rounds. *)
let epochs_end_at_traffic () =
  let plan, sc, values = light_loss_grid8 () in
  let obs = Obs.create () in
  let rounds =
    match
      Sim_aggregate.minimum_outcome ~obs ~reliable:true ~faults:(Fault.compile plan)
        (Rng.create 23) sc ~values
    with
    | Outcome.Complete r | Outcome.Degraded (r, _) -> r.Sim_aggregate.ostats.Simulator.rounds
  in
  let spans = Obs.spans obs in
  let named name = List.filter (fun s -> s.Obs.name = name) spans in
  let epochs = named "pa.epoch" in
  let last =
    List.fold_left (fun a s -> if s.Obs.id > a.Obs.id then s else a) (List.hd epochs) epochs
  in
  check Alcotest.bool "last epoch carries words" true
    (match List.assoc "words" last.Obs.notes with Obs.Int w -> w > 0 | _ -> false);
  check Alcotest.bool "idle epochs cut" true
    (List.length epochs
    < List.length
        (Schedule.epochs ~max_delay:(max 1 (Quality.congestion sc)) ~rounds));
  List.iter
    (fun name ->
      check Alcotest.int (name ^ " rounds = run rounds") rounds
        (List.hd (named name)).Obs.rounds)
    [ "pa"; "pa.run" ]

(* [minimum] is the fault-free raw run of [minimum_outcome]: same answers,
   counts and event stream. *)
let raw_outcome_is_minimum () =
  List.iter
    (fun (name, (sc, values)) ->
      let r, digests =
        traced_run sc (fun tracer -> Sim_aggregate.minimum ~tracer (Rng.create 24) sc ~values)
      in
      let outcome, outcome_digests =
        traced_run sc (fun tracer ->
            Sim_aggregate.minimum_outcome ~reliable:false ~tracer (Rng.create 24) sc ~values)
      in
      let kind, o =
        match outcome with
        | Outcome.Complete o -> ("complete", o)
        | Outcome.Degraded (o, _) -> ("degraded", o)
      in
      check (Alcotest.list Alcotest.string) name
        ([
           "outcome=complete";
           "minima=" ^ ints r.Sim_aggregate.minima;
           "diverged=";
           Printf.sprintf "completion_round=%d" r.Sim_aggregate.completion_round;
           stats_line r.Sim_aggregate.stats;
         ]
        @ digests)
        ([
           "outcome=" ^ kind;
           "minima=" ^ ints o.Sim_aggregate.minima;
           "diverged=" ^ ints (Array.of_list o.Sim_aggregate.diverged);
           Printf.sprintf "completion_round=%d" o.Sim_aggregate.completion_round;
           stats_line o.Sim_aggregate.ostats;
         ]
        @ outcome_digests))
    [ ("grid 12, rows", grid12_rows ()); ("3-tree, voronoi 6", ktree_voronoi6 ()) ]

let minimum_budget_exhausted () =
  let sc, values = grid12_rows () in
  Alcotest.check_raises "budget 1"
    (Failure "Sim_aggregate: part did not converge within budget") (fun () ->
      ignore (Sim_aggregate.minimum ~budget:1 (Rng.create 21) sc ~values))

(* --- Pinned router outputs --------------------------------------------------- *)

(* Both routers on a pinned host, one block of lines per configuration: the
   counts, per-part completion rounds and answers, then the digests of the
   traced run (the profile, and the event stream with its cause ids). The
   untraced run must give the same first line. *)
let router_fingerprint sc ~values =
  let block run line =
    let plain = line (run None) in
    let traced, digests = traced_run sc (fun tracer -> line (run (Some tracer))) in
    check Alcotest.string "tracing is observational" plain traced;
    plain :: digests
  in
  let packet policy bandwidth =
    block
      (fun tracer ->
        Packet_router.route ~policy ~bandwidth ?tracer (Rng.create 31) sc ~values)
      (fun r ->
        Printf.sprintf "packet/%s/bw%d rounds=%d messages=%d max_queue=%d completion=%s minima=%s"
          (Schedule.to_string policy) bandwidth r.Packet_router.rounds
          r.Packet_router.messages r.Packet_router.max_queue
          (ints r.Packet_router.per_part_completion)
          (ints r.Packet_router.per_part_minimum))
  in
  let tree name combine identity bandwidth =
    block
      (fun tracer ->
        Tree_router.aggregate ~bandwidth ?tracer (Rng.create 32) sc ~values ~combine
          ~identity)
      (fun r ->
        Printf.sprintf "tree/%s/bw%d rounds=%d messages=%d completion=%s totals=%s" name
          bandwidth r.Tree_router.rounds r.Tree_router.messages
          (ints r.Tree_router.per_part_completion)
          (ints r.Tree_router.per_part_total))
  in
  List.concat_map
    (fun bandwidth ->
      List.concat_map
        (fun policy -> packet policy bandwidth)
        [ Schedule.Random_delay; Schedule.Fifo; Schedule.Static_order ]
      @ tree "sum" ( + ) 0 bandwidth
      @ tree "max" max min_int bandwidth)
    [ 1; 8 ]

let pinned_routers_grid_rows () =
  let sc, values = grid12_rows () in
  check (Alcotest.list Alcotest.string) "grid 12, rows"
    [
      "packet/random-delay/bw1 rounds=15 messages=2444 max_queue=7 completion=15,7,9,7,9,7,9,7,9,7,9,9 minima=0,356,1145,279,1068,202,991,125,914,48,837,404";
      "profile=23f2d8494e85b97c1ddc41bfb267f4f5";
      "events=52d86eec491a5b8d1adaf5866dc23dd8";
      "packet/fifo/bw1 rounds=15 messages=2437 max_queue=6 completion=15,7,9,7,9,7,9,7,9,7,9,9 minima=0,356,1145,279,1068,202,991,125,914,48,837,404";
      "profile=ff419f3d40617f5dd70dd7f93e6a41e0";
      "events=e69fedbebbfa7afc25d84cb45915f502";
      "packet/static-order/bw1 rounds=11 messages=1975 max_queue=6 completion=11,7,9,7,9,7,9,7,9,7,9,9 minima=0,356,1145,279,1068,202,991,125,914,48,837,404";
      "profile=698ee6441e1663d0ce0b8c7a3274d93d";
      "events=0bc4bc0045287faa3e7ed4b6999bdb9b";
      "tree/sum/bw1 rounds=41 messages=1714 completion=23,25,27,33,26,36,35,40,35,41,38,37 totals=62332,51863,71415,50939,70491,50015,69567,49091,68643,48167,67719,57250";
      "profile=b812933ab53f1a31cdf96ffc9540863a";
      "events=4c7ed785de48d6073d38ebec12ec5672";
      "tree/max/bw1 rounds=41 messages=1714 completion=23,25,27,33,26,36,35,40,35,41,38,37 totals=9574,8708,9930,8631,9853,8554,9776,8477,9699,8400,9622,9978";
      "profile=b812933ab53f1a31cdf96ffc9540863a";
      "events=4c7ed785de48d6073d38ebec12ec5672";
      "packet/random-delay/bw8 rounds=11 messages=3169 max_queue=5 completion=11,7,9,7,9,7,9,7,9,7,9,9 minima=0,356,1145,279,1068,202,991,125,914,48,837,404";
      "profile=39973239494320b2ac1bba7848418010";
      "events=c59dbb945a74b558facac12ae3c74137";
      "packet/fifo/bw8 rounds=11 messages=3169 max_queue=5 completion=11,7,9,7,9,7,9,7,9,7,9,9 minima=0,356,1145,279,1068,202,991,125,914,48,837,404";
      "profile=39973239494320b2ac1bba7848418010";
      "events=d244a3db357d784be88cf9777fb0b3d3";
      "packet/static-order/bw8 rounds=11 messages=3169 max_queue=5 completion=11,7,9,7,9,7,9,7,9,7,9,9 minima=0,356,1145,279,1068,202,991,125,914,48,837,404";
      "profile=39973239494320b2ac1bba7848418010";
      "events=3e996d3f0cbd94292403ad9b2926a7e1";
      "tree/sum/bw8 rounds=33 messages=1675 completion=22,23,24,26,26,28,28,30,30,32,32,33 totals=62332,51863,71415,50939,70491,50015,69567,49091,68643,48167,67719,57250";
      "profile=fa4d5097e78371c27ca47d2850c0a292";
      "events=9130106483ec4fcbfc338d98e8ad2294";
      "tree/max/bw8 rounds=33 messages=1675 completion=22,23,24,26,26,28,28,30,30,32,32,33 totals=9574,8708,9930,8631,9853,8554,9776,8477,9699,8400,9622,9978";
      "profile=fa4d5097e78371c27ca47d2850c0a292";
      "events=9130106483ec4fcbfc338d98e8ad2294";
    ]
    (router_fingerprint sc ~values)

let pinned_routers_ktree_voronoi () =
  let sc, values = ktree_voronoi6 () in
  check (Alcotest.list Alcotest.string) "3-tree, voronoi 6"
    [
      "packet/random-delay/bw1 rounds=7 messages=2666 max_queue=11 completion=7,3,2,0,3,0 minima=48,0,404,6389,125,4580";
      "profile=23717c9d22acc667d23d1631b7ea9b34";
      "events=42ca294fb05e48678ab11f92a14f6caf";
      "packet/fifo/bw1 rounds=7 messages=2666 max_queue=10 completion=7,3,2,0,3,0 minima=48,0,404,6389,125,4580";
      "profile=23717c9d22acc667d23d1631b7ea9b34";
      "events=069130475b147aad69da8902534849da";
      "packet/static-order/bw1 rounds=7 messages=2666 max_queue=10 completion=7,3,2,0,3,0 minima=48,0,404,6389,125,4580";
      "profile=23717c9d22acc667d23d1631b7ea9b34";
      "events=fed41584edea3bb25f019dd6f5941b77";
      "tree/sum/bw1 rounds=7 messages=312 completion=6,7,3,2,5,3 totals=427582,127366,39883,6389,147649,4580";
      "profile=370590bf2c87f931cfc1e9fa0081a04b";
      "events=cb94a340523279166faccf282ff19959";
      "tree/max/bw1 rounds=7 messages=312 completion=6,7,3,2,5,3 totals=9978,9266,9497,6389,9930,4580";
      "profile=370590bf2c87f931cfc1e9fa0081a04b";
      "events=cb94a340523279166faccf282ff19959";
      "packet/random-delay/bw8 rounds=4 messages=2379 max_queue=10 completion=4,3,2,0,2,0 minima=48,0,404,6389,125,4580";
      "profile=8c197f05cc86fcd85f3b1006b4a4c444";
      "events=3e59c0a6a10b44d0dcf2375dbd56dc80";
      "packet/fifo/bw8 rounds=4 messages=2379 max_queue=10 completion=4,3,2,0,2,0 minima=48,0,404,6389,125,4580";
      "profile=8c197f05cc86fcd85f3b1006b4a4c444";
      "events=f381c5d7bf613d5efed6600a49bb261c";
      "packet/static-order/bw8 rounds=4 messages=2379 max_queue=10 completion=4,3,2,0,2,0 minima=48,0,404,6389,125,4580";
      "profile=8c197f05cc86fcd85f3b1006b4a4c444";
      "events=057f8a3f49ebe763816b9cd17411b691";
      "tree/sum/bw8 rounds=6 messages=312 completion=6,6,3,2,5,2 totals=427582,127366,39883,6389,147649,4580";
      "profile=6c36ab5ad6f04e53647dfc2bc0eb845c";
      "events=5021b6f8e9bdfe41ab185639b7f52356";
      "tree/max/bw8 rounds=6 messages=312 completion=6,6,3,2,5,2 totals=9978,9266,9497,6389,9930,4580";
      "profile=6c36ab5ad6f04e53647dfc2bc0eb845c";
      "events=5021b6f8e9bdfe41ab185639b7f52356";
    ]
    (router_fingerprint sc ~values)

let routers_round_limit () =
  let sc, values = grid12_rows () in
  Alcotest.check_raises "packet router"
    (Failure "Packet_router.route: round limit (disconnected shortcut subgraph?)") (fun () ->
      ignore (Packet_router.route ~max_rounds:3 (Rng.create 31) sc ~values));
  Alcotest.check_raises "tree router" (Failure "Tree_router: round limit") (fun () ->
      ignore
        (Tree_router.aggregate ~max_rounds:3 (Rng.create 32) sc ~values ~combine:( + )
           ~identity:0))

(* --- Schedule policies ------------------------------------------------------ *)

let policies_all_correct () =
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let tree = Bfs.tree g ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let values = Array.init 36 (fun v -> (v * 13) mod 101) in
  let expected = Aggregate.reference_minima sc ~values in
  List.iter
    (fun policy ->
      let out = Packet_router.route ~policy (Rng.create 4) sc ~values in
      check Alcotest.bool
        (Printf.sprintf "%s correct" (Schedule.to_string policy))
        true
        (out.Packet_router.per_part_minimum = expected))
    [ Schedule.Random_delay; Schedule.Fifo; Schedule.Static_order ]

let schedule_delays_shape () =
  let rng = Rng.create 5 in
  let d = Schedule.delays Schedule.Random_delay rng ~parts:50 ~max_delay:10 in
  check Alcotest.bool "delays within window" true (Array.for_all (fun x -> x >= 0 && x < 10) d);
  check Alcotest.bool "fifo all zero" true
    (Array.for_all (fun x -> x = 0) (Schedule.delays Schedule.Fifo rng ~parts:5 ~max_delay:10));
  check Alcotest.bool "static is identity" true
    (Schedule.delays Schedule.Static_order rng ~parts:4 ~max_delay:10 = [| 0; 1; 2; 3 |])

let bound_helper () =
  check Alcotest.int "bound" (10 + (3 * 7)) (Aggregate.bound ~congestion:10 ~dilation:3 ~n:100)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      aggregation_correct;
      aggregation_with_empty_shortcut;
      rounds_within_schedule_bound;
      sum_aggregation_correct;
      sum_with_empty_shortcut;
      sim_aggregate_matches_router;
    ]

let suite =
  [
    case "wheel speedup (Section 2 example)" `Quick wheel_speedup;
    case "broadcast: leader tokens" `Quick broadcast_delivers_leader_token;
    case "broadcast: rejects foreign leader" `Quick broadcast_rejects_foreign_leader;
    case "router: path completes" `Quick router_detects_disconnected_subgraph;
    case "router: bandwidth monotone" `Quick router_bandwidth_speedup;
    case "sim aggregate: wheel" `Quick sim_aggregate_wheel;
    case "sim aggregate: pinned grid rows" `Quick pinned_grid_rows;
    case "sim aggregate: pinned k-tree voronoi" `Quick pinned_ktree_voronoi;
    case "sim aggregate: pinned reliable light loss" `Quick pinned_reliable_light_loss;
    case "sim aggregate: epochs end at the last traffic" `Quick epochs_end_at_traffic;
    case "sim aggregate: raw outcome is minimum" `Quick raw_outcome_is_minimum;
    case "sim aggregate: budget exhausted raises" `Quick minimum_budget_exhausted;
    case "router: pinned grid rows" `Quick pinned_routers_grid_rows;
    case "router: pinned k-tree voronoi" `Quick pinned_routers_ktree_voronoi;
    case "router: round limit raises" `Quick routers_round_limit;
    case "tree router: generic combine" `Quick tree_router_generic_combine;
    case "tree router: message economy" `Quick tree_router_message_economy;
    case "schedule: policies all correct" `Quick policies_all_correct;
    case "schedule: delay shapes" `Quick schedule_delays_shape;
    case "bound helper" `Quick bound_helper;
  ]
  @ props
