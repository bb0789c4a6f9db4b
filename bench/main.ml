(* Benchmark harness: regenerates every table of the paper's evaluation
   and runs Bechamel micro-benchmarks of the building blocks.

       dune exec bench/main.exe                 # everything
       dune exec bench/main.exe -- --reps 50    # paper's repetition count
       dune exec bench/main.exe -- --quick      # small sizes, few reps
       dune exec bench/main.exe -- --micro-only # just the Bechamel part
       dune exec bench/main.exe -- --compare BENCH_baseline.json
                                                # re-run a committed grid

   Sections:
     1. Tables 1-3  — average latency ± 95% CI per (protocol, n,
        proposal distribution, fault load), next to the published
        numbers.
     2. σ sweep     — the Section 5 liveness bound, exercised in the
        abstract round model.
     3. Phases      — decision-phase distributions (§7.3).
     4. Bechamel    — one Test.make per paper table (host-CPU cost of a
        representative simulated cell) plus the cryptographic
        primitives. *)

let reps = ref 15
let sizes = ref Harness.Paper.group_sizes
let tables = ref true
let sigma = ref true
let adversary = ref true
let phases = ref true
let workload = ref true
let micro = ref true
let seed = ref 1000L
let json_out = ref None
let jobs = ref (Harness.Pool.default_jobs ())
let grid_out = ref None
let compare_against = ref None
let threshold = ref 0.5

(* version of the --json summary layout; the committed baseline
   documents carry [Harness.Baseline.schema_version] instead *)
let summary_schema_version = 4

let speclist =
  [
    ("--reps", Arg.Set_int reps, "N repetitions per table cell (default 15; paper used 50)");
    ( "--sizes",
      Arg.String
        (fun s -> sizes := List.map int_of_string (String.split_on_char ',' s)),
      "N,N,... group sizes (default 4,7,10,13,16)" );
    ( "--quick",
      Arg.Unit
        (fun () ->
          reps := 5;
          sizes := [ 4; 7 ]),
      " small sizes and few repetitions" );
    ("--seed", Arg.Int (fun s -> seed := Int64.of_int s), "S base seed (default 1000)");
    ( "--tables-only",
      Arg.Unit
        (fun () ->
          sigma := false;
          adversary := false;
          phases := false;
          workload := false;
          micro := false),
      " only regenerate Tables 1-3" );
    ( "--micro-only",
      Arg.Unit
        (fun () ->
          tables := false;
          sigma := false;
          adversary := false;
          phases := false;
          workload := false),
      " only the Bechamel micro-benchmarks" );
    ( "--adversary-only",
      Arg.Unit
        (fun () ->
          tables := false;
          sigma := false;
          phases := false;
          workload := false;
          micro := false),
      " only the sigma-edge vs static-loss comparison" );
    ( "--workload-only",
      Arg.Unit
        (fun () ->
          tables := false;
          sigma := false;
          adversary := false;
          phases := false;
          micro := false),
      " only the consensus-service workload sweep" );
    ( "--json",
      Arg.String (fun f -> json_out := Some f),
      "FILE write a machine-readable summary (table cells + per-load metrics) to FILE" );
    ( "-j",
      Arg.Set_int jobs,
      "N worker domains for independent runs (default: cores minus one); results \
       are bit-identical for every N" );
    ( "--jobs",
      Arg.Set_int jobs,
      "N same as -j" );
    ( "--baseline-out",
      Arg.String (fun f -> grid_out := Some (Harness.Baseline.Regression_gate, f)),
      "FILE run the regression-gate grid (memoized, -j 1), write its wall-clock and \
       airtime rows to FILE, and run nothing else" );
    ( "--scaling-out",
      Arg.String (fun f -> grid_out := Some (Harness.Baseline.Scaling, f)),
      "FILE run the scaling sweep (Turquois vs sample-based consensus at \
       16/64/128/256/1024, -j 1), write its rows to FILE, and run nothing else" );
    ( "--compare",
      Arg.String (fun f -> compare_against := Some f),
      "FILE re-run the grid FILE records (at -j 1, with its seed) and diff every \
       row: exact rows must match bit for bit, max_growth rows may grow at most \
       --threshold; exit 1 on any failing or one-sided row" );
    ( "--threshold",
      Arg.Set_float threshold,
      "X allowed relative growth of max_growth rows for --compare (default 0.5 = +50%)" );
  ]

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "%s\n%s\n%s\n" line title line

(* --- section 1: the paper's tables ---------------------------------------- *)

let run_tables () =
  let options =
    {
      Harness.Experiment.default_options with
      reps = !reps;
      group_sizes = !sizes;
      base_seed = !seed;
      progress = Some (fun line -> Printf.eprintf "  [%s]\n%!" line);
      jobs = Some !jobs;
    }
  in
  List.map
    (fun load ->
      banner
        (Printf.sprintf "Table %d: %s fault load (%d reps/cell)"
           (Harness.Experiment.table_number load)
           (Net.Fault.load_to_string load)
           !reps);
      let results = Harness.Experiment.run_table ~options load in
      print_string (Harness.Experiment.render_table load results);
      print_newline ();
      print_string (Harness.Experiment.render_comparison load results);
      print_newline ();
      (load, results))
    [ Net.Fault.Failure_free; Net.Fault.Fail_stop; Net.Fault.Byzantine ]

(* --- section 1b: sigma-edge adversary vs matched static loss --------------- *)

type adversary_point = {
  adv_n : int;
  adv_k : int;
  adv_sigma : int;
  adv_rate : float;  (** per-receiver omission rate the adversary achieved *)
  adv_drops : int;
  adv_edge : Util.Stats.summary;  (** completion latency, ms, censored *)
  adv_static : Util.Stats.summary;
  adv_edge_timeouts : int;
  adv_static_timeouts : int;
}

let silent_conditions = { Net.Fault.loss_prob = 0.0; jam_windows = [] }

(* Every correct process contributes its decision latency, censored at the
   timeout when it never decides: the sigma-edge adversary sits exactly at
   the Section 5 liveness bound, so starving a victim forever is expected
   behaviour, and dropping those processes from the mean would hide
   precisely the delay the adversary buys. *)
let censored_latencies ~timeout (r : Harness.Runner.result) =
  List.map
    (fun i ->
      match List.assoc_opt i r.latencies with
      | Some l -> 1000.0 *. l
      | None -> 1000.0 *. timeout)
    r.correct

let run_adversary () =
  banner
    "Adaptive adversary: sigma-edge omissions vs iid loss at the same rate";
  let timeout = 10.0 in
  let reps = max 3 (min !reps 10) in
  let points =
    List.map
      (fun n ->
        let k = n - Net.Fault.max_f n in
        let s = Net.Fault.sigma ~n ~k ~t:0 in
        (* pass 1: the adaptive adversary, counting the drops it spends *)
        let edge_runs =
          List.init reps (fun i ->
              let handle = ref None in
              let r =
                Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n
                  ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free
                  ~conditions:silent_conditions
                  ~attach:(fun radio ->
                    handle := Some (Net.Fault.sigma_edge radio ~n ~k ~t:0 ()))
                  ~timeout
                  ~seed:(Int64.add !seed (Int64.of_int (7000 + i)))
                  ()
              in
              let drops =
                match !handle with
                | Some h -> Net.Fault.sigma_edge_drops h
                | None -> 0
              in
              (r, drops))
        in
        let drops = List.fold_left (fun a (_, d) -> a + d) 0 edge_runs in
        let opportunities =
          List.fold_left
            (fun a ((r : Harness.Runner.result), _) ->
              a + (r.frames_sent * (n - 1)))
            0 edge_runs
        in
        let rate =
          if opportunities = 0 then 0.0
          else float_of_int drops /. float_of_int opportunities
        in
        (* pass 2: iid loss at the rate the adversary actually achieved *)
        let static_runs =
          List.init reps (fun i ->
              Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n
                ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free
                ~conditions:{ Net.Fault.loss_prob = rate; jam_windows = [] }
                ~timeout
                ~seed:(Int64.add !seed (Int64.of_int (7000 + i)))
                ())
        in
        {
          adv_n = n;
          adv_k = k;
          adv_sigma = s;
          adv_rate = rate;
          adv_drops = drops;
          adv_edge =
            Util.Stats.summarize
              (List.concat_map
                 (fun (r, _) -> censored_latencies ~timeout r)
                 edge_runs);
          adv_static =
            Util.Stats.summarize
              (List.concat_map (censored_latencies ~timeout) static_runs);
          adv_edge_timeouts =
            List.length
              (List.filter
                 (fun ((r : Harness.Runner.result), _) -> r.timed_out)
                 edge_runs);
          adv_static_timeouts =
            List.length
              (List.filter
                 (fun (r : Harness.Runner.result) -> r.timed_out)
                 static_runs);
        })
      [ 4; 7 ]
  in
  let row p =
    [
      string_of_int p.adv_n;
      string_of_int p.adv_sigma;
      Printf.sprintf "%.1f%%" (100.0 *. p.adv_rate);
      Printf.sprintf "%.1f ms" p.adv_edge.Util.Stats.mean;
      Printf.sprintf "%d/%d" p.adv_edge_timeouts reps;
      Printf.sprintf "%.1f ms" p.adv_static.Util.Stats.mean;
      Printf.sprintf "%d/%d" p.adv_static_timeouts reps;
    ]
  in
  print_string
    (Util.Tablefmt.render
       ~header:
         [
           "n";
           "sigma";
           "omission rate";
           "sigma-edge";
           "stalls";
           "static loss";
           "stalls";
         ]
       ~rows:(List.map row points) ());
  print_newline ();
  points

let adversary_to_json p =
  let slowdown =
    if p.adv_static.Util.Stats.mean > 0.0 then
      p.adv_edge.Util.Stats.mean /. p.adv_static.Util.Stats.mean
    else 0.0
  in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int p.adv_n);
      ("k", Obs.Json.Int p.adv_k);
      ("sigma", Obs.Json.Int p.adv_sigma);
      ("matched_loss_rate", Obs.Json.Float p.adv_rate);
      ("drops", Obs.Json.Int p.adv_drops);
      ("sigma_edge_mean_ms", Obs.Json.Float p.adv_edge.Util.Stats.mean);
      ("sigma_edge_ci95_ms", Obs.Json.Float p.adv_edge.Util.Stats.ci95);
      ("sigma_edge_timeouts", Obs.Json.Int p.adv_edge_timeouts);
      ("static_loss_mean_ms", Obs.Json.Float p.adv_static.Util.Stats.mean);
      ("static_loss_ci95_ms", Obs.Json.Float p.adv_static.Util.Stats.ci95);
      ("static_loss_timeouts", Obs.Json.Int p.adv_static_timeouts);
      ("slowdown", Obs.Json.Float slowdown);
    ]

(* --- section 1c: consensus-service workload --------------------------------- *)

let workload_loads = [ 10.0; 30.0; 120.0 ]

let workload_base () =
  {
    (Harness.Workload.default ~n:4) with
    (* a longer run than the default config: 60 commands at the lowest
       load span only ~3 s, so the fixed decide-and-deliver tail lag
       dominates the sustained-throughput ratio and hides the knee *)
    Harness.Workload.capacity = 72;
    commands = 120;
    seed = Util.Rng.derive ~base:!seed [ 71 ];
  }

let run_workload () =
  banner
    "Consensus-service workload: offered load vs sustained decisions and latency";
  let reps = max 2 (min !reps 4) in
  let points =
    Harness.Workload.sweep ~jobs:!jobs ~base:(workload_base ()) ~loads:workload_loads
      ~reps ()
  in
  print_string (Harness.Workload.render_points points);
  print_newline ();
  points

let workload_point_to_json (p : Harness.Workload.point) =
  Obs.Json.Obj
    [
      ("offered_load_cmd_s", Obs.Json.Float p.Harness.Workload.load_point);
      ("throughput_cmd_s", Obs.Json.Float p.Harness.Workload.mean_throughput);
      ("decisions_per_s", Obs.Json.Float p.Harness.Workload.mean_decisions_per_sec);
      ("latency_p50_s", Obs.Json.Float p.Harness.Workload.mean_p50);
      ("latency_p99_s", Obs.Json.Float p.Harness.Workload.mean_p99);
      ("delivered_commands", Obs.Json.Float p.Harness.Workload.mean_delivered);
      ("reps", Obs.Json.Int p.Harness.Workload.reps);
    ]

let workload_to_json points =
  Obs.Json.Obj
    [
      ("loads", Obs.Json.List (List.map (fun l -> Obs.Json.Float l) workload_loads));
      ("points", Obs.Json.List (List.map workload_point_to_json points));
      ( "saturation_knee_cmd_s",
        match Harness.Workload.knee points with
        | Some k -> Obs.Json.Float k
        | None -> Obs.Json.Null );
    ]

(* --- machine-readable summary ---------------------------------------------- *)

let cell_to_json (cr : Harness.Experiment.cell_result) =
  Obs.Json.Obj
    [
      ("protocol", Obs.Json.String (Harness.Runner.protocol_to_string cr.cell.protocol));
      ("n", Obs.Json.Int cr.cell.n);
      ("dist", Obs.Json.String (Harness.Runner.dist_to_string cr.cell.dist));
      ("mean_ms", Obs.Json.Float cr.summary.mean);
      ("ci95_ms", Obs.Json.Float cr.summary.ci95);
      ("decided_fraction", Obs.Json.Float cr.decided_fraction);
      ("agreement_violations", Obs.Json.Int cr.agreement_violations);
      ("validity_violations", Obs.Json.Int cr.validity_violations);
      ("timeouts", Obs.Json.Int cr.timeouts);
    ]

(* one representative run per fault load so the JSON carries a full
   metrics snapshot alongside the latency aggregates *)
let metrics_json () =
  Obs.Json.Obj
    (List.map
       (fun load ->
         let r =
           Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
             ~dist:Harness.Runner.Unanimous ~load ~seed:!seed ()
         in
         (Net.Fault.load_to_string load, Obs.Metrics.to_json r.metrics))
       [ Net.Fault.Failure_free; Net.Fault.Fail_stop; Net.Fault.Byzantine ])

let write_json file table_results adversary_results workload_results =
  let doc =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int summary_schema_version);
        ("reps", Obs.Json.Int !reps);
        ("sizes", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) !sizes));
        ("seed", Obs.Json.String (Int64.to_string !seed));
        ( "tables",
          Obs.Json.List
            (List.map
               (fun (load, results) ->
                 Obs.Json.Obj
                   [
                     ("table", Obs.Json.Int (Harness.Experiment.table_number load));
                     ("load", Obs.Json.String (Net.Fault.load_to_string load));
                     ("cells", Obs.Json.List (List.map cell_to_json results));
                   ])
               table_results) );
        ( "adversary",
          Obs.Json.List (List.map adversary_to_json adversary_results) );
        ("workload", workload_to_json workload_results);
        ("metrics", metrics_json ());
      ]
  in
  let oc = open_out file in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote JSON summary to %s\n%!" file

(* --- section 2: sigma sweep ------------------------------------------------ *)

let run_sigma () =
  banner "Section 5 liveness bound: omissions per round vs progress";
  List.iter
    (fun (n, byz) ->
      let t = List.length byz in
      let k = n - Net.Fault.max_f n in
      let rows =
        Harness.Sweeps.sigma_sweep ~n ~k ~byzantine:byz ~runs_per_point:8 ~rounds:90
          ~beyond:3 ~base_seed:!seed ~jobs:!jobs ()
      in
      print_string (Harness.Sweeps.render_sigma ~n ~k ~t rows);
      print_newline ())
    [ (4, []); (8, []); (8, [ 7 ]) ]

(* --- section 3: decision phases ------------------------------------------- *)

let run_phases () =
  banner "Decision phases (paper 7.3): unanimous vs divergent";
  let rows =
    Harness.Sweeps.phase_distribution ~n:10 ~reps:20 ~base_seed:!seed ~jobs:!jobs
      ~loads:[ Net.Fault.Failure_free; Net.Fault.Byzantine ] ()
  in
  print_string (Harness.Sweeps.render_phases ~n:10 rows);
  print_newline ()

(* --- section 3b: ablations -------------------------------------------------- *)

let run_ablations () =
  banner "Ablations: the design choices DESIGN.md calls out";
  let rows = Harness.Sweeps.ablations ~n:10 ~reps:10 ~base_seed:!seed ~jobs:!jobs () in
  print_string (Harness.Sweeps.render_ablations ~n:10 rows);
  print_newline ()

(* --- section 3c: committed baseline grids ----------------------------------- *)

(* The regression-gate grid: a fast, fully deterministic slice of the
   benchmark surface (memoized, -j 1). The wall-clock rows catch
   performance regressions; the frame/byte/airtime counts of a
   representative run are bit-deterministic for a fixed seed, so any
   drift there signals a protocol behavior change — rebaseline
   deliberately with --baseline-out when that change is intentional. *)
let gate_rows () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    ignore v;
    Unix.gettimeofday () -. t0
  in
  let n = 8 in
  let k = n - Net.Fault.max_f n in
  Harness.Runner.clear_key_cache ();
  let sweep_s =
    time (fun () ->
        Harness.Sweeps.sigma_sweep_merged ~n ~k ~runs_per_point:8 ~rounds:90
          ~beyond:3 ~base_seed:!seed ~jobs:1 ())
  in
  let cell_s =
    time (fun () ->
        Harness.Experiment.run_cell ~reps:12 ~base_seed:!seed ~jobs:1
          {
            Harness.Experiment.protocol = Harness.Runner.Turquois;
            n = 7;
            dist = Harness.Runner.Divergent;
            load = Net.Fault.Failure_free;
          })
  in
  let chaos_s =
    time (fun () -> Harness.Chaos.run_chaos ~n:4 ~runs:20 ~jobs:1 ~seed:!seed ())
  in
  let wl = ref None in
  let workload_s =
    time (fun () -> wl := Some (Harness.Workload.run (workload_base ())))
  in
  let wl = Option.get !wl in
  let rep =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:7
      ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free ~seed:!seed ()
  in
  let airtime =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        if s.name = "radio.airtime_s" then
          match s.value with
          | Obs.Metrics.Gauge g -> acc +. g
          | Obs.Metrics.Counter c -> acc +. float_of_int c
          | Obs.Metrics.Histogram _ -> acc
        else acc)
      0.0 rep.Harness.Runner.metrics
  in
  let row rule name value = { Harness.Baseline.name; value; rule } in
  let wall = row Harness.Baseline.Max_growth and exact = row Harness.Baseline.Exact in
  [
    wall "wall.sigma_sweep_s" sweep_s;
    wall "wall.table_cell_s" cell_s;
    wall "wall.chaos_s" chaos_s;
    wall "wall.workload_s" workload_s;
    exact "airtime.frames_sent" (float_of_int rep.Harness.Runner.frames_sent);
    exact "airtime.bytes_sent" (float_of_int rep.Harness.Runner.bytes_sent);
    exact "airtime.airtime_s" airtime;
    exact "airtime.sim_duration_s" rep.Harness.Runner.duration;
    exact "airtime.workload_delivered"
      (float_of_int wl.Harness.Workload.delivered_commands);
    exact "airtime.workload_slots"
      (float_of_int
         (wl.Harness.Workload.committed_slots + wl.Harness.Workload.skipped_slots));
    exact "airtime.workload_sim_s" wl.Harness.Workload.duration;
  ]

(* Every committed grid runs at -j 1, so the scaling sweep's
   allocation words do not depend on which points shared a domain. -j
   affects only the report sections. *)
let grid_rows = function
  | Harness.Baseline.Regression_gate -> gate_rows ()
  | Harness.Baseline.Scaling ->
      Harness.Scaling.rows (Harness.Scaling.sweep ~jobs:1 ~seed:!seed ())

let write_grid grid file =
  banner
    (Printf.sprintf "Baseline grid %s (-j 1, seed %Ld)"
       (Harness.Baseline.grid_name grid) !seed);
  let rows = grid_rows grid in
  List.iter
    (fun (r : Harness.Baseline.row) -> Printf.printf "  %-40s %.17g\n" r.name r.value)
    rows;
  Harness.Baseline.save file { Harness.Baseline.grid; seed = !seed; rows };
  Printf.printf "wrote %s\n" file

(* Re-run the grid a document records, with its seed, and diff row by
   row. Exact rows print only when they fail; max_growth rows always
   print, so the report doubles as a wall-clock/allocation readout. *)
let run_compare file =
  match Harness.Baseline.load file with
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 2
  | Ok base ->
      banner
        (Printf.sprintf "Baseline gate: re-run %s grid vs %s (max growth +%.0f%%)"
           (Harness.Baseline.grid_name base.grid) file (100.0 *. !threshold));
      seed := base.seed;
      let verdicts =
        Harness.Baseline.diff ~threshold:!threshold ~base:base.rows
          (grid_rows base.grid)
      in
      List.iter
        (fun (v : Harness.Baseline.verdict) ->
          let growth_row =
            match v.base with
            | Some b -> b.rule = Harness.Baseline.Max_growth
            | None -> false
          in
          if growth_row || not v.ok then
            print_endline (Harness.Baseline.render_verdict v))
        verdicts;
      let failed = List.length (List.filter (fun v -> not v.Harness.Baseline.ok) verdicts) in
      Printf.printf "baseline gate: %d of %d rows failed against %s — %s\n" failed
        (List.length verdicts) file
        (if failed = 0 then "ok" else "FAIL");
      if failed > 0 then exit 1

(* --- section 4: bechamel --------------------------------------------------- *)

open Bechamel
open Toolkit

(* one representative simulated cell per paper table, measured in host
   CPU time: n = 4, one run of each protocol under the table's fault
   load *)
let table_cell_test ~name ~load ~table_seed =
  Test.make ~name
    (Staged.stage (fun () ->
         List.iter
           (fun protocol ->
             ignore
               (Harness.Runner.run ~protocol ~n:4 ~dist:Harness.Runner.Unanimous ~load
                  ~seed:table_seed ()))
           [ Harness.Runner.Turquois; Harness.Runner.Abba; Harness.Runner.Bracha ]))

let crypto_tests () =
  let rng = Util.Rng.create ~seed:77L in
  let buf = Util.Rng.bytes rng 256 in
  let rsa = Crypto.Rsa.generate rng ~bits:512 in
  let signature = Crypto.Rsa.sign rsa.sec buf in
  let sk, vk = Crypto.Onetime_sig.generate rng ~owner:0 ~phases:8 in
  ignore sk;
  let proof = Crypto.Onetime_sig.reveal sk ~phase:3 Crypto.Onetime_sig.S_one in
  let params, key_shares = Crypto.Coin.setup rng ~n:4 ~threshold:2 ~pbits:512 ~qbits:160 () in
  let share = Crypto.Coin.create_share params key_shares.(0) ~name:"bench" in
  (* the coin's shape: a 512-bit modulus and a 160-bit exponent *)
  let modulus = Prime.random_prime rng ~bits:512 in
  let modexp_base = Prime.random_below rng modulus in
  let modexp_exp = Prime.random_bits rng ~bits:160 in
  Test.make_grouped ~name:"crypto"
    [
      Test.make ~name:"znum-modexp-512x160"
        (Staged.stage (fun () -> Znum.mod_pow ~base:modexp_base ~exp:modexp_exp ~m:modulus));
      Test.make ~name:"rsa512-generate"
        (let keygen_rng = Util.Rng.create ~seed:78L in
         Staged.stage (fun () -> Crypto.Rsa.generate keygen_rng ~bits:512));
      Test.make ~name:"sha256-256B" (Staged.stage (fun () -> Crypto.Sha256.digest buf));
      Test.make ~name:"hmac-256B"
        (Staged.stage (fun () -> Crypto.Hmac.mac ~key:proof buf));
      Test.make ~name:"onetime-check"
        (Staged.stage (fun () ->
             Crypto.Onetime_sig.check vk ~phase:3 Crypto.Onetime_sig.S_one ~proof));
      Test.make ~name:"rsa512-verify"
        (Staged.stage (fun () -> Crypto.Rsa.verify rsa.pub buf ~signature));
      Test.make ~name:"rsa512-sign" (Staged.stage (fun () -> Crypto.Rsa.sign rsa.sec buf));
      Test.make ~name:"coin-share-verify"
        (Staged.stage (fun () -> Crypto.Coin.verify_share params ~name:"bench" share));
    ]

let run_micro () =
  banner "Bechamel micro-benchmarks (host CPU time per operation)";
  let tests =
    Test.make_grouped ~name:"bench"
      [
        Test.make_grouped ~name:"tables"
          [
            table_cell_test ~name:"table1-cell-n4" ~load:Net.Fault.Failure_free
              ~table_seed:11L;
            table_cell_test ~name:"table2-cell-n4" ~load:Net.Fault.Fail_stop
              ~table_seed:12L;
            table_cell_test ~name:"table3-cell-n4" ~load:Net.Fault.Byzantine
              ~table_seed:13L;
          ];
        crypto_tests ();
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        let r2 =
          match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan
        in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
  in
  let render (name, ns, r2) =
    let time =
      if ns >= 1.0e6 then Printf.sprintf "%10.3f ms" (ns /. 1.0e6)
      else if ns >= 1.0e3 then Printf.sprintf "%10.3f us" (ns /. 1.0e3)
      else Printf.sprintf "%10.1f ns" ns
    in
    [ name; time; Printf.sprintf "%.4f" r2 ]
  in
  print_string
    (Util.Tablefmt.render
       ~header:[ "benchmark"; "time/run"; "r^2" ]
       ~rows:(List.map render rows) ());
  print_newline ()

let () =
  Arg.parse speclist
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "bench/main.exe [options]";
  match (!grid_out, !compare_against) with
  | Some (grid, file), _ ->
      write_grid grid file;
      print_endline "benchmark complete."
  | None, Some file ->
      run_compare file;
      print_endline "benchmark complete."
  | None, None ->
  let table_results = if !tables then run_tables () else [] in
  if !sigma then run_sigma ();
  let adversary_results = if !adversary then run_adversary () else [] in
  if !phases then run_phases ();
  if !phases then run_ablations ();
  let workload_results = if !workload then run_workload () else [] in
  if !micro then run_micro ();
  (match !json_out with
  | None -> ()
  | Some file -> write_json file table_results adversary_results workload_results);
  print_endline "benchmark complete."
