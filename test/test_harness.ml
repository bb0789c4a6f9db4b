(* Tests of the experiment harness: runner, experiment cells, paper
   reference data, abstract round model and the sigma bound. *)

module R = Harness.Runner

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_proposals () =
  Alcotest.(check (array int)) "unanimous" [| 1; 1; 1; 1 |] (R.proposals R.Unanimous ~n:4);
  Alcotest.(check (array int)) "divergent" [| 0; 1; 0; 1; 0 |] (R.proposals R.Divergent ~n:5)

let test_names () =
  Alcotest.(check string) "turquois" "Turquois" (R.protocol_to_string R.Turquois);
  Alcotest.(check string) "abba" "ABBA" (R.protocol_to_string R.Abba);
  Alcotest.(check string) "bracha" "Bracha" (R.protocol_to_string R.Bracha);
  Alcotest.(check string) "unan" "unanimous" (R.dist_to_string R.Unanimous)

let test_runner_turquois_result () =
  let r =
    R.run ~protocol:R.Turquois ~n:4 ~dist:R.Unanimous ~load:Net.Fault.Failure_free ~seed:5L ()
  in
  Alcotest.(check int) "4 correct" 4 (List.length r.correct);
  Alcotest.(check int) "4 latencies" 4 (List.length r.latencies);
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check bool) "validity" true r.validity;
  Alcotest.(check bool) "not timed out" false r.timed_out;
  Alcotest.(check bool) "frames counted" true (r.frames_sent > 0);
  List.iter
    (fun (_, l) -> Alcotest.(check bool) "positive latency" true (l > 0.0))
    r.latencies

let test_runner_failstop_excludes_crashed () =
  let r =
    R.run ~protocol:R.Turquois ~n:7 ~dist:R.Unanimous ~load:Net.Fault.Fail_stop ~seed:6L ()
  in
  Alcotest.(check int) "5 measured" 5 (List.length r.correct);
  Alcotest.(check bool) "crashed not measured" false (List.mem_assoc 6 r.latencies)

let test_runner_byzantine_excludes_attackers () =
  let r =
    R.run ~protocol:R.Turquois ~n:7 ~dist:R.Unanimous ~load:Net.Fault.Byzantine ~seed:7L ()
  in
  Alcotest.(check int) "5 measured" 5 (List.length r.correct);
  Alcotest.(check bool) "validity" true r.validity

let test_runner_deterministic () =
  let run () =
    R.run ~protocol:R.Turquois ~n:4 ~dist:R.Divergent ~load:Net.Fault.Failure_free ~seed:11L ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same latencies" true (a.latencies = b.latencies);
  Alcotest.(check bool) "same decisions" true (a.decisions = b.decisions)

let test_runner_seed_variation () =
  let lat seed =
    let r =
      R.run ~protocol:R.Turquois ~n:4 ~dist:R.Divergent ~load:Net.Fault.Failure_free ~seed ()
    in
    r.latencies
  in
  Alcotest.(check bool) "different seeds differ" true (lat 12L <> lat 13L)

let test_experiment_cell () =
  let cell =
    { Harness.Experiment.protocol = R.Turquois; n = 4; dist = R.Unanimous;
      load = Net.Fault.Failure_free }
  in
  let result = Harness.Experiment.run_cell ~reps:4 ~base_seed:50L cell in
  Alcotest.(check int) "16 samples (4 procs x 4 reps)" 16 result.summary.count;
  Alcotest.(check int) "no agreement violations" 0 result.agreement_violations;
  Alcotest.(check int) "no validity violations" 0 result.validity_violations;
  Alcotest.(check int) "no timeouts" 0 result.timeouts;
  Alcotest.(check (float 1e-9)) "all decided" 1.0 result.decided_fraction;
  match result.phase_summary with
  | Some p -> Alcotest.(check (float 1e-9)) "phase 3 everywhere" 3.0 p.mean
  | None -> Alcotest.fail "phase summary expected"

let test_render_table () =
  let cell =
    { Harness.Experiment.protocol = R.Turquois; n = 4; dist = R.Unanimous;
      load = Net.Fault.Failure_free }
  in
  let result = Harness.Experiment.run_cell ~reps:2 ~base_seed:60L cell in
  let table = Harness.Experiment.render_table Net.Fault.Failure_free [ result ] in
  Alcotest.(check bool) "mentions group" true
    (String.length table > 0
    && contains ~affix:"n = 4" table
    && contains ~affix:"Turquois" table)

let test_table_numbers () =
  Alcotest.(check int) "t1" 1 (Harness.Experiment.table_number Net.Fault.Failure_free);
  Alcotest.(check int) "t2" 2 (Harness.Experiment.table_number Net.Fault.Fail_stop);
  Alcotest.(check int) "t3" 3 (Harness.Experiment.table_number Net.Fault.Byzantine)

let test_paper_values () =
  (match Harness.Paper.value ~load:Net.Fault.Failure_free ~protocol:R.Turquois ~n:4
           ~dist:R.Unanimous with
  | Some (mean, ci) ->
      Alcotest.(check (float 1e-9)) "t1 mean" 14.90 mean;
      Alcotest.(check (float 1e-9)) "t1 ci" 4.74 ci
  | None -> Alcotest.fail "expected value");
  (match Harness.Paper.value ~load:Net.Fault.Byzantine ~protocol:R.Bracha ~n:16
           ~dist:R.Divergent with
  | Some (mean, _) -> Alcotest.(check (float 1e-9)) "t3 bracha" 20412.36 mean
  | None -> Alcotest.fail "expected value");
  Alcotest.(check bool) "unknown n" true
    (Harness.Paper.value ~load:Net.Fault.Failure_free ~protocol:R.Turquois ~n:5
       ~dist:R.Unanimous = None);
  Alcotest.(check int) "group sizes" 5 (List.length Harness.Paper.group_sizes)

(* --- abstract rounds / sigma bound ------------------------------------------- *)

module A = Harness.Abstract_rounds

let test_sigma_values () =
  Alcotest.(check int) "n=4 k=3 t=0" 3 (A.sigma ~n:4 ~k:3 ~t:0);
  Alcotest.(check int) "n=8 k=6 t=0" ((4 * 2) + 4) (A.sigma ~n:8 ~k:6 ~t:0)

let test_abstract_lossless_decides () =
  let o = A.run ~n:4 ~k:3 ~omissions:0 ~rounds:10 ~seed:1L () in
  Alcotest.(check int) "all decide" 4 o.deciders;
  Alcotest.(check bool) "k reached early" true
    (match o.rounds_to_k with Some r -> r <= 4 | None -> false);
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "validity" true o.validity

let test_abstract_at_sigma_progresses () =
  let sigma = A.sigma ~n:4 ~k:3 ~t:0 in
  let ok = ref 0 in
  for seed = 0 to 9 do
    let o =
      A.run ~n:4 ~k:3 ~adversary:A.Random_omissions ~omissions:sigma ~rounds:80
        ~seed:(Int64.of_int seed) ()
    in
    Alcotest.(check bool) "safety at sigma" true (o.agreement && o.validity);
    if o.rounds_to_k <> None then incr ok
  done;
  Alcotest.(check int) "k reached in every run" 10 !ok

let test_abstract_beyond_sigma_targeted_stalls () =
  let sigma = A.sigma ~n:4 ~k:3 ~t:0 in
  let o =
    A.run ~n:4 ~k:3 ~adversary:A.Target_victims ~omissions:(sigma + 3) ~rounds:60 ~seed:3L ()
  in
  Alcotest.(check bool) "k not reached" true (o.rounds_to_k = None);
  Alcotest.(check bool) "but safety holds" true (o.agreement && o.validity)

let test_abstract_byzantine_safety () =
  for seed = 0 to 4 do
    let o =
      A.run ~n:7 ~k:5 ~byzantine:[ 5; 6 ] ~dist:R.Divergent ~adversary:A.Random_omissions
        ~omissions:3 ~rounds:60 ~seed:(Int64.of_int seed) ()
    in
    Alcotest.(check bool) "agreement under byz+omissions" true o.agreement
  done

let test_sweep_shape () =
  let rows = Harness.Sweeps.sigma_sweep ~n:4 ~k:3 ~runs_per_point:3 ~rounds:50 ~beyond:2 () in
  (* both adversaries, omissions 0..sigma+2 *)
  Alcotest.(check int) "row count" (2 * (3 + 2 + 1)) (List.length rows);
  List.iter
    (fun (row : Harness.Sweeps.sigma_row) ->
      Alcotest.(check int) "no agreement violations" 0 row.agreement_violations;
      Alcotest.(check int) "no validity violations" 0 row.validity_violations)
    rows;
  let rendered = Harness.Sweeps.render_sigma ~n:4 ~k:3 ~t:0 rows in
  Alcotest.(check bool) "renders sigma" true (contains ~affix:"sigma" rendered)

let test_phase_distribution () =
  let rows =
    Harness.Sweeps.phase_distribution ~n:4 ~reps:3 ~loads:[ Net.Fault.Failure_free ] ()
  in
  Alcotest.(check int) "two dists" 2 (List.length rows);
  let unan = List.find (fun (r : Harness.Sweeps.phase_row) -> r.dist = R.Unanimous) rows in
  Alcotest.(check (float 1e-9)) "unanimous decides at phase 3" 3.0 unan.phase_stats.mean

(* --- committed baseline documents ------------------------------------------ *)

module B = Harness.Baseline

let row ?(rule = B.Exact) name value = { B.name; value; rule }

let sample_doc =
  {
    B.grid = B.Scaling;
    seed = 1000L;
    rows =
      [
        row "Turquois/n=16/mean_latency_s" 0.015804466668394624;
        row "Turquois/n=16/msgs" 46.0;
        row ~rule:B.Max_growth "wall.chaos_s" 3.1729681491851807;
        row "tiny" 5e-324;
      ];
  }

let failing verdicts =
  List.filter_map (fun (v : B.verdict) -> if v.ok then None else Some v.name) verdicts

let test_baseline_round_trip () =
  let file = Filename.temp_file "baseline" ".json" in
  B.save file sample_doc;
  let loaded = B.load file in
  Sys.remove file;
  match loaded with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check bool) "same document" true (d = sample_doc);
      Alcotest.(check (list string)) "diff against itself" []
        (failing (B.diff ~threshold:0.0 ~base:sample_doc.rows d.rows))

let test_baseline_exact_one_ulp () =
  let base = [ row "airtime.airtime_s" 0.0057578181818181843 ] in
  let bumped = [ row "airtime.airtime_s" (Float.succ 0.0057578181818181843) ] in
  Alcotest.(check (list string)) "one ulp fails even at a huge threshold"
    [ "airtime.airtime_s" ]
    (failing (B.diff ~threshold:1e9 ~base bumped));
  Alcotest.(check (list string)) "equal passes" [] (failing (B.diff ~threshold:0.0 ~base base))

let test_baseline_max_growth () =
  let g v = [ row ~rule:B.Max_growth "wall.s" v ] in
  let verdict v = failing (B.diff ~threshold:0.5 ~base:(g 2.0) (g v)) in
  Alcotest.(check (list string)) "any decrease passes" [] (verdict 0.001);
  Alcotest.(check (list string)) "growth up to the threshold passes" [] (verdict 3.0);
  Alcotest.(check (list string)) "growth above it fails" [ "wall.s" ]
    (verdict (Float.succ 3.0));
  Alcotest.(check (list string)) "growth from zero fails" [ "wall.s" ]
    (failing (B.diff ~threshold:0.5 ~base:(g 0.0) (g 1.0)))

let test_baseline_one_sided_rows () =
  let a = row "a" 1.0 and b = row ~rule:B.Max_growth "b" 1.0 in
  Alcotest.(check (list string)) "missing from the re-run" [ "b" ]
    (failing (B.diff ~threshold:1.0 ~base:[ a; b ] [ a ]));
  Alcotest.(check (list string)) "missing from the baseline" [ "b" ]
    (failing (B.diff ~threshold:1.0 ~base:[ a ] [ a; b ]));
  Alcotest.(check (list string)) "a changed rule fails" [ "b" ]
    (failing (B.diff ~threshold:1.0 ~base:[ a; b ] [ a; { b with rule = B.Exact } ]))

let test_baseline_rejects () =
  let good = B.to_string sample_doc in
  (* [s] with its first [sub] replaced by [by] *)
  let replace ~sub ~by s =
    let m = String.length sub in
    let rec go i = if String.sub s i m = sub then i else go (i + 1) in
    let i = go 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + m) (String.length s - i - m)
  in
  let rejected what s =
    Alcotest.(check bool) what true (Result.is_error (B.of_string s))
  in
  Alcotest.(check bool) "the unmodified text parses" true (Result.is_ok (B.of_string good));
  rejected "wrong schema_version"
    (replace ~sub:(Printf.sprintf "\"schema_version\":%d" B.schema_version)
       ~by:"\"schema_version\":4" good);
  rejected "unknown grid" (replace ~sub:"\"scaling\"" ~by:"\"scalling\"" good);
  rejected "unknown rule" (replace ~sub:"\"max_growth\"" ~by:"\"two_sided\"" good);
  rejected "malformed JSON" (String.sub good 0 (String.length good / 2));
  rejected "an old-layout document"
    "{\"bench\":\"regression-gate\",\"schema_version\":4,\"seed\":\"1000\"}";
  rejected "duplicate row"
    (B.to_string { sample_doc with rows = sample_doc.rows @ [ List.hd sample_doc.rows ] });
  Alcotest.(check bool) "unreadable file" true
    (Result.is_error (B.load "/nonexistent/baseline.json"))

let test_scaling_rows_cover_every_field () =
  let p =
    {
      Harness.Scaling.protocol = "Sampled";
      n = 64;
      honest = 1;
      decided = 2;
      mean_latency = 3.5;
      max_latency = 4.5;
      duration = 5.5;
      msgs = 6;
      bytes = 7;
      airtime = 8.5;
      live_peak = 9;
      queued_peak = 10;
      arena_hw = 11;
      timed_out = true;
      mem_words = 13;
      minor_words = 14;
      major_words = 15;
    }
  in
  let rows = Harness.Scaling.rows [ p ] in
  (* a record with non-float fields is a block with one slot per field:
     a new [point] field makes this count disagree until it has a row *)
  Alcotest.(check int) "one row per field but protocol and n"
    (Obj.size (Obj.repr p) - 2)
    (List.length rows);
  Alcotest.(check (list (float 0.0))) "values in field order"
    [ 1.; 2.; 3.5; 4.5; 5.5; 6.; 7.; 8.5; 9.; 10.; 11.; 1.; 13.; 14.; 15. ]
    (List.map (fun (r : B.row) -> r.value) rows);
  Alcotest.(check int) "distinct names" (List.length rows)
    (List.length (List.sort_uniq compare (List.map (fun (r : B.row) -> r.name) rows)));
  List.iter
    (fun (r : B.row) ->
      Alcotest.(check bool) (r.name ^ " keyed by protocol and n") true
        (contains ~affix:"Sampled/n=64/" r.name);
      let words =
        List.exists
          (fun w -> contains ~affix:w r.name)
          [ "mem_words"; "minor_words"; "major_words" ]
      in
      Alcotest.(check bool) (r.name ^ " rule") true
        (r.rule = if words then B.Max_growth else B.Exact))
    rows

let suite =
  ( "harness",
    [
      Alcotest.test_case "proposals" `Quick test_proposals;
      Alcotest.test_case "names" `Quick test_names;
      Alcotest.test_case "runner result" `Quick test_runner_turquois_result;
      Alcotest.test_case "fail-stop exclusion" `Quick test_runner_failstop_excludes_crashed;
      Alcotest.test_case "byzantine exclusion" `Quick test_runner_byzantine_excludes_attackers;
      Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
      Alcotest.test_case "seed variation" `Quick test_runner_seed_variation;
      Alcotest.test_case "experiment cell" `Quick test_experiment_cell;
      Alcotest.test_case "render table" `Quick test_render_table;
      Alcotest.test_case "table numbers" `Quick test_table_numbers;
      Alcotest.test_case "paper values" `Quick test_paper_values;
      Alcotest.test_case "sigma values" `Quick test_sigma_values;
      Alcotest.test_case "abstract lossless" `Quick test_abstract_lossless_decides;
      Alcotest.test_case "abstract at sigma" `Slow test_abstract_at_sigma_progresses;
      Alcotest.test_case "abstract beyond sigma" `Quick test_abstract_beyond_sigma_targeted_stalls;
      Alcotest.test_case "abstract byzantine" `Slow test_abstract_byzantine_safety;
      Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
      Alcotest.test_case "phase distribution" `Quick test_phase_distribution;
      Alcotest.test_case "baseline round trip" `Quick test_baseline_round_trip;
      Alcotest.test_case "baseline exact one ulp" `Quick test_baseline_exact_one_ulp;
      Alcotest.test_case "baseline max growth" `Quick test_baseline_max_growth;
      Alcotest.test_case "baseline one-sided rows" `Quick test_baseline_one_sided_rows;
      Alcotest.test_case "baseline rejects" `Quick test_baseline_rejects;
      Alcotest.test_case "scaling rows cover every field" `Quick
        test_scaling_rows_cover_every_field;
    ] )

(* --- paper-shape assertions ----------------------------------------------- *)

let mean_latency ~protocol ~n ~dist ~load ~reps ~base_seed =
  let acc = ref [] in
  for rep = 0 to reps - 1 do
    let r =
      R.run ~protocol ~n ~dist ~load ~seed:(Int64.add base_seed (Int64.of_int rep)) ()
    in
    List.iter (fun (_, l) -> acc := l :: !acc) r.latencies
  done;
  Util.Stats.mean !acc

let test_shape_failstop_slower_than_failure_free () =
  (* the Table 2 observation: with exactly n-f processes, Turquois
     becomes sensitive to message loss *)
  let free =
    mean_latency ~protocol:R.Turquois ~n:10 ~dist:R.Unanimous ~load:Net.Fault.Failure_free
      ~reps:6 ~base_seed:800L
  in
  let failstop =
    mean_latency ~protocol:R.Turquois ~n:10 ~dist:R.Unanimous ~load:Net.Fault.Fail_stop
      ~reps:6 ~base_seed:800L
  in
  Alcotest.(check bool) "fail-stop slower" true (failstop > free)

let test_shape_divergent_slower_failure_free () =
  (* the Table 1 observation: divergent proposals cost roughly a cycle *)
  let unanimous =
    mean_latency ~protocol:R.Turquois ~n:7 ~dist:R.Unanimous ~load:Net.Fault.Failure_free
      ~reps:6 ~base_seed:810L
  in
  let divergent =
    mean_latency ~protocol:R.Turquois ~n:7 ~dist:R.Divergent ~load:Net.Fault.Failure_free
      ~reps:6 ~base_seed:810L
  in
  Alcotest.(check bool) "divergent slower" true (divergent > unanimous)

let test_shape_message_complexity_separation () =
  (* frames per consensus: Bracha grows much faster with n than Turquois *)
  let frames protocol n =
    let r =
      R.run ~protocol ~n ~dist:R.Unanimous ~load:Net.Fault.Failure_free ~seed:820L ()
    in
    float_of_int r.frames_sent
  in
  let turquois_growth = frames R.Turquois 10 /. frames R.Turquois 4 in
  let bracha_growth = frames R.Bracha 10 /. frames R.Bracha 4 in
  Alcotest.(check bool) "bracha superlinear vs turquois" true
    (bracha_growth > 3.0 *. turquois_growth)

let shape_suite =
  [
    Alcotest.test_case "shape: fail-stop degradation" `Slow
      test_shape_failstop_slower_than_failure_free;
    Alcotest.test_case "shape: divergent penalty" `Slow test_shape_divergent_slower_failure_free;
    Alcotest.test_case "shape: message complexity" `Slow test_shape_message_complexity_separation;
  ]

let suite = (fst suite, snd suite @ shape_suite)
