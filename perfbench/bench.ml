(* End-to-end benchmark of the shortcut pipeline, through the public [Core] API.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One invocation generates one workload's inputs from the seed, runs its
   pipeline repeatedly for S seconds with tracing off, checks every run's
   output after its timer stops, and prints a readable report followed by
   one JSON line: the end-to-end metrics with --trace 0, or, with --trace 1,
   the per-layer metrics of one extra run with an [Obs] collector attached
   (and, on construct_ktree, of one more run on two domains with a
   [Par_profile] attached).

   Times are wall-clock ([Unix.gettimeofday]); [Sys.time] would sum CPU time
   over domains. Allocation is read from [Gc.quick_stat] after the run, when
   the simulator has joined its domains, so it counts every domain;
   [Gc.minor_words] would count only the calling domain. *)

open Core

let now = Unix.gettimeofday

(* ---------- one run ---------- *)

type run = {
  ok : bool;  (* the output passed its check *)
  exact : (string * int) list;
      (* counts the paper bounds or the simulator tallies: identical on
         every run of one seed *)
  layers : (string * float) list;  (* wall seconds around calls into a layer *)
}

type instance = {
  shape : (string * int) list;  (* n, m, k *)
  profile_domains : int;
      (* every run uses one domain; with --trace 1 a workload with
         [profile_domains > 1] makes one more run on that many domains,
         with a [Par_profile] attached *)
  pipeline : obs:Obs.t option -> prof:Par_profile.t option -> unit -> unit -> unit -> run;
      (* [pipeline ~obs ~prof ()] prepares a run's per-run inputs; the
         closure it returns is the timed work, and the closure that returns
         is the check, run after the timer stops *)
  measured : Obs.t option -> (string * int) list * (string * float) list;
      (* exact figures measured once, outside every timer, on the last
         run's output (or read from the traced run's collector, when there
         is one), with the time their measurement took *)
}

(* Adds (layer metric, seconds) around a call into the library to [acc]. *)
let time acc name f =
  let t0 = now () in
  let r = f () in
  acc := (name, now () -. t0) :: !acc;
  r

let values_of rng g = Array.init (Graph.n g) (fun _ -> Rng.int rng 1_000_000_000)

let sim_exact (st : Simulator.stats) ~n =
  [
    ("congest.messages", st.Simulator.messages);
    ("congest.words", st.Simulator.words);
    ("congest.max_edge_load", st.Simulator.max_edge_load);
    ("congest.node_steps", n * st.Simulator.rounds);
  ]

(* Exact dilation of the last run's shortcut, and the time it took. *)
let dilation_of = function
  | None -> ([], [])
  | Some sc ->
      let acc = ref [] in
      let d = time acc "shortcut.quality_s" (fun () -> Quality.dilation sc) in
      ([ ("dilation", d) ], !acc)

(* ---------- workloads ---------- *)

(* The lcs_graph calls of the current setup, timed under their layer
   metric. *)
let stages = ref []

let pa_grid_rows rng =
  let side = 36 in
  let g = time stages "graph.generate_s" (fun () -> Generators.grid ~rows:side ~cols:side) in
  let partition =
    time stages "graph.partition_s" (fun () -> Partition.grid_rows g ~rows:side ~cols:side)
  in
  let tree = time stages "graph.tree_s" (fun () -> Bfs.tree g ~root:0) in
  let values = values_of rng g in
  let sim_seed = Rng.int rng 1_000_000_000 in
  let n = Graph.n g in
  let pipeline ~obs ~prof () =
    let rng = Rng.create sim_seed in
    fun () ->
      let acc = ref [] in
      let b = time acc "shortcut.boost_s" (fun () -> Boost.full ?obs partition ~tree) in
      let sc = b.Boost.shortcut in
      let q = time acc "shortcut.quality_s" (fun () -> Quality.measure sc) in
      let r =
        time acc "partwise.aggregate_s" (fun () ->
            Sim_aggregate.minimum ~domains:1 ?obs ?par_profile:prof rng sc ~values)
      in
      fun () ->
        {
          ok = r.Sim_aggregate.minima = Aggregate.reference_minima sc ~values;
          exact =
            [
              ("result_rounds", r.Sim_aggregate.completion_round);
              ("congestion", q.Quality.congestion);
              ("dilation", q.Quality.dilation);
              ("shortcut.boost_iterations", b.Boost.iterations);
              ("partwise.rounds", r.Sim_aggregate.rounds);
            ]
            @ sim_exact r.Sim_aggregate.stats ~n;
          layers = !acc;
        }
  in
  {
    shape = [ ("n", n); ("m", Graph.m g); ("k", Partition.k partition) ];
    profile_domains = 1;
    pipeline;
    measured = (fun _ -> ([], []));
  }

let construct_ktree rng =
  let g = time stages "graph.generate_s" (fun () -> Generators.k_tree rng ~k:6 ~n:20_000) in
  let partition = time stages "graph.partition_s" (fun () -> Partition.voronoi g rng ~parts:256) in
  let tree = time stages "graph.tree_s" (fun () -> Bfs.tree g ~root:0) in
  let seed = Rng.int rng 1_000_000_000 in
  let n = Graph.n g in
  let profile_domains = 2 in
  (* The centralized overcongested set at the accepted threshold, computed
     once per distinct threshold outside every timer. *)
  let reference = Hashtbl.create 1 in
  let reference_over (o : Distributed.outcome) =
    let key = (o.Distributed.threshold, o.Distributed.delta) in
    match Hashtbl.find_opt reference key with
    | Some r -> r
    | None ->
        let r =
          Construct.run partition ~tree:o.Distributed.tree ~threshold:o.Distributed.threshold
            ~block_budget:(8 * o.Distributed.delta)
        in
        Hashtbl.add reference key r.Construct.overcongested;
        r.Construct.overcongested
  in
  let last = ref None in
  let pipeline ~obs ~prof () () =
    let acc = ref [] in
    let domains = if prof = None then 1 else profile_domains in
    let o =
      time acc "shortcut.distributed_s" (fun () ->
          Distributed.construct ?obs ~seed ~domains ?par_profile:prof partition ~root:0)
    in
    fun () ->
      let res = o.Distributed.result in
      (* BFS depths are unique, so the distributed BFS tree must match the
         sequential one vertex by vertex. *)
      let same_depths =
        let ok = ref true in
        for v = 0 to n - 1 do
          if Rooted_tree.depth o.Distributed.tree v <> Rooted_tree.depth tree v then ok := false
        done;
        !ok
      in
      (* The min-hash estimator decides |I_e| >= c only approximately, so
         its overcongested set can differ from the exact one at edges whose
         |I_e| lies near c; such differences are counted, not failed. A
         miss by a factor of two would show as congestion above 2c. *)
      let over = res.Construct.overcongested and exact_over = reference_over o in
      let mismatch =
        Bitset.cardinal over + Bitset.cardinal exact_over
        - (2 * Bitset.inter_cardinal over exact_over)
      in
      let congestion = Quality.congestion res.Construct.shortcut in
      let ok =
        Construct.succeeded res && same_depths && congestion <= 2 * o.Distributed.threshold
      in
      last := Some res.Construct.shortcut;
      let bfs = o.Distributed.bfs_stats in
      let rounds = bfs.Simulator.rounds + o.Distributed.wave_rounds in
      {
        ok;
        exact =
          [
            ("result_rounds", rounds);
            ("congestion", congestion);
            ("shortcut.selected", res.Construct.selected_count);
            ("shortcut.over_mismatch", mismatch);
            ("shortcut.bfs_rounds", bfs.Simulator.rounds);
            ("shortcut.wave_rounds", o.Distributed.wave_rounds);
            ("shortcut.wave_messages", o.Distributed.wave_messages);
            ("congest.messages", bfs.Simulator.messages + o.Distributed.wave_messages);
            ("congest.max_edge_load", bfs.Simulator.max_edge_load);
            ("congest.node_steps", n * rounds);
          ];
        layers = !acc;
      }
  in
  let measured _ = dilation_of !last in
  {
    shape = [ ("n", n); ("m", Graph.m g); ("k", Partition.k partition) ];
    profile_domains;
    pipeline;
    measured;
  }

let mst_grid rng =
  let side = 60 in
  let g = time stages "graph.generate_s" (fun () -> Generators.grid ~rows:side ~cols:side) in
  let w = time stages "graph.partition_s" (fun () -> Weights.random_distinct rng g) in
  let seed = Rng.int rng 1_000_000_000 in
  let reference = lazy (Kruskal.mst w) in
  let pipeline ~obs ~prof:_ () () =
    let acc = ref [] in
    let r = time acc "algos.mst_s" (fun () -> Mst.boruvka ?obs ~seed ~mode:Thm31 ~domains:1 w) in
    fun () ->
      let a = r.Mst.accounting in
      {
        ok = r.Mst.edges = Lazy.force reference;
        exact =
          [
            ("result_rounds", a.Boruvka_engine.pa_rounds);
            ("congestion", a.Boruvka_engine.max_congestion);
            ("algos.phases", a.Boruvka_engine.phases);
            ("algos.pa_messages", a.Boruvka_engine.pa_messages);
          ];
        layers = !acc;
      }
  in
  (* Borůvka keeps its per-phase shortcuts to itself; a run with a
     collector notes each aggregation's measured dilation on its "pa"
     span, so the maximum over phases is read from one such run. *)
  let measured traced =
    let obs =
      match traced with
      | Some obs -> obs
      | None ->
          let obs = Obs.create () in
          ignore (Mst.boruvka ~obs ~seed ~mode:Thm31 ~domains:1 w);
          obs
    in
    let d =
      List.fold_left
        (fun acc (s : Obs.span) ->
          List.fold_left
            (fun acc (k, v) ->
              match (k, v) with "dilation", Obs.Int d -> max acc d | _ -> acc)
            acc s.Obs.notes)
        0 (Obs.spans obs)
    in
    ([ ("dilation", d) ], [])
  in
  {
    shape = [ ("n", Graph.n g); ("m", Graph.m g); ("k", Graph.n g) ];
    profile_domains = 1;
    pipeline;
    measured;
  }

let workloads =
  [
    ("pa_grid_rows", pa_grid_rows);
    ("construct_ktree", construct_ktree);
    ("mst_grid", mst_grid);
  ]

(* ---------- measurement ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples above it, if any:
   (percentile, value). *)
let tail_percentile xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 11 then None
  else
    let i = n - 11 in
    Some (100. *. float_of_int (i + 1) /. float_of_int n, a.(i))

type sample = {
  wall : float;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  result : run option;  (* None: the run raised *)
}

(* One pipeline run: inputs prepared, then the timed work, then the GC
   counters, then the check. *)
let run_once inst ~obs ~prof =
  let work = inst.pipeline ~obs ~prof () in
  (* Every run starts from a collected heap. A domain's counters are
     brought up to date at its minor collections, hence the forced one
     after the run, left out of minor_gcs. *)
  let g0 = Gc.stat () in
  let t0 = now () in
  match work () with
  | check ->
      let wall = now () -. t0 in
      let g_end = Gc.quick_stat () in
      Gc.minor ();
      let g1 = Gc.quick_stat () in
      let result = try Some (check ()) with e -> prerr_endline (Printexc.to_string e); None in
      {
        wall;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections - 1;
        major_gcs = g_end.Gc.major_collections - g0.Gc.major_collections;
        result;
      }
  | exception e ->
      prerr_endline ("run raised: " ^ Printexc.to_string e);
      {
        wall = now () -. t0;
        minor_words = 0.;
        promoted_words = 0.;
        minor_gcs = 0;
        major_gcs = 0;
        result = None;
      }

(* The runs use the instance generated first. [more_setup] generates the
   inputs again, at least [setup_reps] times and for at least
   [setup_min_s] seconds; setup_s is the median of all generations. It
   runs after the warm-up run, so that the warm-up run starts from the
   same heap on every invocation, and before the timed runs, which start
   from a collected heap. Generating between timed runs slowed them by
   about a fifth on mst_grid. *)
let setup_reps = 5
let setup_min_s = 1.5

let setup make seed =
  let times = ref [] and per_rep = ref [] in
  let generate () =
    stages := [];
    let t0 = now () in
    let i = make (Rng.create seed) in
    times := (now () -. t0) :: !times;
    per_rep := !stages :: !per_rep;
    i
  in
  let more_setup () =
    let t_start = now () in
    while List.length !times < setup_reps || now () -. t_start < setup_min_s do
      ignore (generate ())
    done
  in
  let stage_median name =
    median (List.map (fun st -> try List.assoc name st with Not_found -> 0.) !per_rep)
  in
  (generate (), more_setup, (fun () -> median !times), stage_median)

(* ---------- output ---------- *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-28s %14.6g %s\n" name v unit) metrics;
  let body =
    metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: pa_grid_rows construct_ktree mst_grid";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun _ -> usage ())
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make = match List.assoc_opt !workload workloads with Some m -> m | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  let inst, more_setup, setup_s, stage_median = setup make !seed in
  Printf.printf "workload %s seed %d: %s, 1 domain\n%!" !workload !seed
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) inst.shape));
  (* The first run fills caches and grows the heap; it is checked and
     counted but not timed. The largest major heap so far, through the
     first generation and this run, is peak_heap_mb: the runtime cannot
     reset that figure, and later runs keep growing it. *)
  let warm = run_once inst ~obs:None ~prof:None in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  more_setup ();
  let samples = ref [] in
  let t_start = now () in
  while List.length !samples < 3 || now () -. t_start < !seconds do
    samples := run_once inst ~obs:None ~prof:None :: !samples
  done;
  let samples = List.rev !samples in
  let traced =
    if !trace = 1 then begin
      let obs = Obs.create () in
      Some (run_once inst ~obs:(Some obs) ~prof:None, obs)
    end
    else None
  in
  (* On a host whose cores are shared with other tenants, domains that meet
     at a barrier every round wait for whichever core is slowed, so a
     multi-domain wall time is taken once, for the per-layer split only. *)
  let profiled =
    if !trace = 1 && inst.profile_domains > 1 then begin
      let prof = Par_profile.create () in
      Some (run_once inst ~obs:None ~prof:(Some prof), prof)
    end
    else None
  in
  (* Checks: every output correct, and every exact figure equal to the
     first run's, so that nondeterminism cannot hide inside a median.
     Allocation repeats exactly only on one domain, which exempts the
     profiled run; the traced run allocates more by design, and the
     warm-up run pays lazy set-up. *)
  let extra =
    (match traced with Some (s, _) -> [ s ] | None -> [])
    @ match profiled with Some (s, _) -> [ s ] | None -> []
  in
  let all = (warm :: samples) @ extra in
  let reference = match warm.result with Some r -> r.exact | None -> [] in
  let alloc0 = (List.hd samples).minor_words in
  let failed_run s =
    match s.result with
    | None -> true
    | Some r ->
        let repeat = r.exact = reference in
        let alloc_repeat = s == warm || s.minor_words = alloc0 || List.memq s extra in
        if not r.ok then prerr_endline "output check failed";
        if not repeat then prerr_endline "exact figures differ between runs of one seed";
        if not alloc_repeat then prerr_endline "minor words differ between runs of one seed";
        (not r.ok) || (not repeat) || not alloc_repeat
  in
  let attempted = List.length all in
  let failed = List.length (List.filter failed_run all) in
  (* Dilation costs an exact diameter per part; it is part of the pipeline
     on pa_grid_rows and measured only in the traced run elsewhere. *)
  let measured_exact, measured_layers =
    if warm.result <> None && !trace = 1 then
      inst.measured (Option.map snd traced)
    else ([], [])
  in
  let exact_opt name = List.assoc_opt name (reference @ measured_exact) in
  let exact name = match exact_opt name with Some v -> float_of_int v | None -> 0. in
  let walls = List.map (fun s -> s.wall) samples in
  let run_s = median walls in
  let med f = median (List.map f samples) in
  Printf.printf "run_s: median %.4f s over %d samples; %s\n" run_s (List.length walls)
    (match tail_percentile walls with
    | Some (p, v) -> Printf.sprintf "p%.0f %.4f s" p v
    | None -> "no percentile has 10 samples above it");
  Printf.printf "run_s samples: %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") walls));
  Printf.printf "failed_frac: %d/%d = %g\n" failed attempted
    (float_of_int failed /. float_of_int attempted);
  List.iter
    (fun (name, unit) ->
      match exact_opt name with
      | Some v -> Printf.printf "%s: %d %s\n" name v unit
      | None -> Printf.printf "%s: measured with --trace 1\n" name)
    [ ("result_rounds", "rounds"); ("congestion", "count"); ("dilation", "count") ];
  let metrics =
    match traced with
    | None ->
        [
          ("run_s", run_s, "s");
          ("setup_s", setup_s (), "s");
          ("alloc_mwords", med (fun s -> s.minor_words) /. 1e6, "Mwords");
          ( "peak_heap_mb",
            float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6,
            "MB" );
        ]
    | Some (ts, obs) ->
        let spans = Obs.spans obs in
        let span_s name =
          List.fold_left
            (fun acc (s : Obs.span) -> if s.Obs.name = name then acc +. s.Obs.dur_s else acc)
            0. spans
        in
        let span_notes name key =
          List.fold_left
            (fun acc (s : Obs.span) ->
              if s.Obs.name <> name then acc
              else
                List.fold_left
                  (fun acc (k, v) -> match v with Obs.Int i when k = key -> acc + i | _ -> acc)
                  acc s.Obs.notes)
            0 spans
        in
        let layer name =
          let from_run = match ts.result with Some r -> r.layers | None -> [] in
          match List.assoc_opt name (from_run @ measured_layers) with Some v -> v | None -> 0.
        in
        let is_mst = !workload = "mst_grid" in
        let rounds = exact "partwise.rounds" in
        let par_wall, busy, barrier, imbalance, par_words =
          match profiled with
          | None -> (0., 0., 0., 0., 0.)
          | Some (ps, p) ->
              let t = Par_profile.totals p in
              let sum f = Array.fold_left (fun a x -> a +. f x) 0. t in
              ( ps.wall,
                sum (fun x -> x.Par_profile.step_s +. x.Par_profile.deliver_s),
                sum (fun x -> x.Par_profile.barrier_s),
                Par_profile.imbalance p,
                sum (fun x -> float_of_int x.Par_profile.words) )
        in
        if is_mst then
          print_endline
            "note: mst_grid's traced run also measures every aggregation's shortcut \
             quality, which the untraced run skips (shortcut.quality_s), so \
             algos.mst_s is inflated; its split is read from the pa.run and \
             boruvka.shortcut spans.";
        [
          ("result_rounds", exact "result_rounds", "rounds");
          ("congestion", exact "congestion", "count");
          ("dilation", exact "dilation", "count");
          ("graph.generate_s", stage_median "graph.generate_s", "s");
          ("graph.partition_s", stage_median "graph.partition_s", "s");
          ("graph.tree_s", stage_median "graph.tree_s", "s");
          ( "shortcut.quality_s",
            (if is_mst then span_s "pa" -. span_s "pa.run" else layer "shortcut.quality_s"),
            "s" );
          ("shortcut.boost_s", (if is_mst then span_s "boost" else layer "shortcut.boost_s"), "s");
          ( "shortcut.boost_iterations",
            (if is_mst then float_of_int (span_notes "boost" "iterations")
             else exact "shortcut.boost_iterations"),
            "count" );
          ( "shortcut.construct_s",
            (if is_mst then span_s "boruvka.shortcut" else span_s "construct"),
            "s" );
          ("shortcut.distributed_s", layer "shortcut.distributed_s", "s");
          ("shortcut.bfs_rounds", exact "shortcut.bfs_rounds", "rounds");
          ("shortcut.wave_rounds", exact "shortcut.wave_rounds", "rounds");
          ("shortcut.wave_messages", exact "shortcut.wave_messages", "count");
          ("shortcut.over_mismatch", exact "shortcut.over_mismatch", "count");
          ("partwise.aggregate_s", layer "partwise.aggregate_s", "s");
          ("partwise.setup_s", span_s "pa.setup", "s");
          ("partwise.sim_s", (if is_mst then 0. else span_s "pa.run"), "s");
          ("partwise.router_s", (if is_mst then span_s "pa.run" else 0.), "s");
          ("partwise.rounds", rounds, "rounds");
          ( "partwise.useful_round_frac",
            (if rounds > 0. then exact "result_rounds" /. rounds else 0.),
            "ratio" );
          ("congest.messages", exact "congest.messages", "count");
          ("congest.words", (if profiled = None then exact "congest.words" else par_words), "count");
          ("congest.max_edge_load", exact "congest.max_edge_load", "words");
          ("congest.node_steps", exact "congest.node_steps", "count");
          ("congest.par.wall_s", par_wall, "s");
          ("congest.par.busy_s", busy, "s");
          ("congest.par.barrier_s", barrier, "s");
          ("congest.par.imbalance", imbalance, "ratio");
          ("algos.mst_s", layer "algos.mst_s", "s");
          ("algos.phases", exact "algos.phases", "count");
          ("algos.pa_messages", exact "algos.pa_messages", "count");
          ("obs.traced_overhead", ts.wall /. run_s, "ratio");
          ("gc.minor_collections", med (fun s -> float_of_int s.minor_gcs), "count");
          ("gc.major_collections", med (fun s -> float_of_int s.major_gcs), "count");
          ("gc.promoted_mwords", med (fun s -> s.promoted_words) /. 1e6, "Mwords");
        ]
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
