(* Repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
     main.exe --check-record FILE

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   runs the traced pass and prints the per-layer metrics. The last line
   of standard output is the result object. Any safety violation exits
   with code 3 and no result line. *)

open Workloads

(* runs [op i], stopping the benchmark on any safety violation *)
let checked_op (spec : spec) ~seed i =
  Span.current_op := i;
  let o = spec.op ~base:seed i in
  Span.current_op := -1;
  List.iter
    (fun record ->
      match Gate.violations record with
      | [] -> ()
      | problems ->
          List.iter (fun p -> Printf.eprintf "perfbench: %s op %d: %s\n" spec.name i p) problems;
          Printf.eprintf "perfbench: offending record (seed %Ld): %s\n" seed
            (Obs.Json.to_string (Gate.to_json record));
          exit 3)
    o.records;
  o

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let pct l p = match l with [] -> 0.0 | _ -> Util.Stats.percentile l p
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- metrics as printed ----------------------------------------------------- *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else invalid_arg "non-finite metric"

let result_line ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname (json_number x.value)
              x.unit_)
          metrics))

let print_table metrics =
  List.iter (fun x -> Printf.printf "  %-42s %18.6f %s\n" x.mname x.value x.unit_) metrics

(* --- set-up ------------------------------------------------------------------ *)

(* The dealer seeds are the same in every run: how long a key ceremony
   takes depends on how far each RSA prime search runs, and set-up time
   should compare the program across runs, not the luck of the draw. *)
let setup_times (spec : spec) =
  let times = ref [] and last = ref Abba_keys in
  for j = 1 to spec.setup_reps do
    let rng = Util.Rng.create ~seed:(Util.Rng.derive ~base:0x5e7L [ j ]) in
    let k, dt = Span.with_ spec.setup_name (fun () -> spec.setup rng) in
    times := dt :: !times;
    last := k
  done;
  (!times, !last)

let setups spec =
  let times, keys = setup_times spec in
  (Layers.median times, keys)

(* --- untraced pass: end-to-end metrics ----------------------------------------- *)

(* Decisions per second of each whole cycle of the operation list, over
   its completed operations: the median of these is robust to a burst of
   load on the host that a total over the window would absorb. *)
let cycle_rates cycle ops =
  let ops = Array.of_list ops in
  List.filter_map
    (fun c ->
      let done_ = List.filter (fun o -> o.missed = 0) (Array.to_list (Array.sub ops (c * cycle) cycle)) in
      let wall = sumf (fun o -> o.wall_s) done_ in
      if wall > 0.0 then Some (float_of_int (sumi (fun o -> o.decisions) done_) /. wall) else None)
    (List.init (Array.length ops / cycle) Fun.id)

(* The closed loop: operations one after another from the seed's list
   until [seconds] have passed and at least the fixed prefix [sim_ops]
   ran, ending on a cycle boundary. Also returns the heap high-water mark
   at the end of the prefix. *)
let window (spec : spec) ~seed ~seconds =
  let t0 = Span.now_ns () in
  let ops = ref [] and heap_words = ref 0 and i = ref 0 in
  while
    !i < spec.sim_ops || Span.seconds_since t0 < seconds || !i mod spec.cycle <> 0
  do
    ops := checked_op spec ~seed !i :: !ops;
    incr i;
    if !i = spec.sim_ops then heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  (List.rev !ops, !heap_words)

(* a failed operation counts in [failed] and [delivered_ratio], and its
   undecided processes or undelivered commands as the slowest simulated
   latency samples; host time and per-decision costs are over the
   operations that completed, so a rare stall does not swing them *)
let completed l = List.filter (fun o -> o.missed = 0) l

(* Host time of the window: decisions per second (median over cycles),
   median and tail wall of the completed operations. *)
let host_timing (spec : spec) ops =
  let walls_ms = List.map (fun o -> 1e3 *. o.wall_s) (completed ops) in
  ( [
      m "decisions_per_s" "1/s" (Layers.median (cycle_rates spec.cycle ops));
      m "wall_ms_p50" "ms" (pct walls_ms 0.5);
      m "wall_ms_tail" "ms" (pct walls_ms spec.tail_p);
    ],
    Obs.Json.Obj
      [
        ("tail_percentile", Obs.Json.Float (100.0 *. spec.tail_p));
        ("samples", Obs.Json.Int (List.length walls_ms));
        ( "samples_beyond_tail",
          Obs.Json.Int
            (int_of_float
               (Float.round ((1.0 -. spec.tail_p) *. float_of_int (List.length walls_ms)))) );
      ] )

let failures ops = List.length (List.filter (fun o -> o.missed > 0) ops)

(* Simulated metrics, allocation and the heap high-water mark come from
   the fixed prefix, so they are a function of the seed alone. Host wall
   and throughput of the window go to the detail line only: on a shared
   host they drift with the neighbours' load far beyond any bound. *)
let end_to_end (spec : spec) ~seed ~seconds =
  let before, _ = setup_times spec in
  spec.warm seed;
  let ops, heap_words = window spec ~seed ~seconds in
  (* the host's speed wanders over seconds: set up again after the
     window, so the median spans the run rather than its first moments *)
  let after, _ = setup_times spec in
  let setup_s = Layers.median (before @ after) in
  let prefix = List.filteri (fun k _ -> k < spec.sim_ops) ops in
  let ok_prefix = completed prefix in
  let decided = float_of_int (max 1 (sumi (fun o -> o.decisions) ok_prefix)) in
  let lat_ms = List.concat_map (fun o -> List.map (fun l -> 1e3 *. l) o.latencies) prefix in
  let simulated =
    [
      m "sim_latency_ms_p50" "ms" (pct lat_ms 0.5);
      m "sim_latency_ms_p90" "ms" (pct lat_ms 0.9);
      m "air_kb_per_decision" "kB"
        (1e-3 *. float_of_int (sumi (fun o -> o.bytes) ok_prefix) /. decided);
      m "airtime_ms_per_decision" "ms" (1e3 *. sumf (fun o -> o.airtime) ok_prefix /. decided);
      m "delivered_ratio" "ratio"
        (1.0 -. ratio (sumi (fun o -> o.missed) prefix) (sumi (fun o -> o.tried) prefix));
    ]
  in
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "alloc_mwords_per_decision" "Mword"
        (1e-6 *. sumf (fun o -> o.alloc_words) ok_prefix /. decided);
      m "peak_heap_mb" "MB" (float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
    ]
    @ simulated
  in
  let host, tail = host_timing spec ops in
  let detail =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String spec.name);
        ("seed", Obs.Json.String (Int64.to_string seed));
        ("ops", Obs.Json.Int (List.length ops));
        ("sim_ops", Obs.Json.Int spec.sim_ops);
        ( "host",
          Obs.Json.Obj
            (List.map (fun x -> (x.mname, Obs.Json.Float x.value)) host @ [ ("tail", tail) ]) );
        ( "simulated",
          Obs.Json.Obj
            (List.map
               (fun x -> (x.mname, Obs.Json.String (Printf.sprintf "%h" x.value)))
               simulated) );
      ]
  in
  (metrics, detail, List.length ops, failures ops)

(* --- traced pass: per-layer metrics --------------------------------------------- *)

let snapshot_counts ops =
  let snap = Obs.Metrics.merge (List.map (fun o -> o.metrics) ops) in
  let c name = Obs.Metrics.sum_counters snap name in
  (c, fun ?labels name -> Obs.Metrics.counter_value snap ?labels name)

let per_layer (spec : spec) ~seed ~seconds =
  Span.enabled := true;
  let setup_s, keys = setups spec in
  let rsa_generate_ms, rsa_verify_us = Layers.rsa ~seed:(Util.Rng.derive ~base:seed [ 0x45a ]) in
  spec.warm seed;
  Span.enabled := false;
  let window_ops, _ = window spec ~seed ~seconds in
  let host, tail = host_timing spec window_ops in
  (* after each traced operation, the reset a run scope does of the
     state that operation left behind *)
  let resets = ref [] in
  let run traced i =
    Span.enabled := traced;
    let o = checked_op spec ~seed i in
    if traced then
      resets :=
        Span.time "obs.scope.with_run" (fun () -> ignore (Obs.Scope.with_run ignore))
        :: !resets;
    o
  in
  (* each operation runs once untraced and once traced, alternating
     which goes first so neither pass inherits a warmer heap *)
  let pairs =
    List.init spec.trace_ops (fun i ->
        if i mod 2 = 0 then
          let u = run false i in
          (u, run true i)
        else
          let t = run true i in
          (run false i, t))
  in
  Span.enabled := true;
  let untraced_ops = List.map fst pairs and traced_ops = List.map snd pairs in
  let untraced_ms = List.map (fun o -> 1e3 *. o.wall_s) untraced_ops in
  let traced_ms = List.map (fun o -> 1e3 *. o.wall_s) traced_ops in
  let with_run_us = 1e6 *. Layers.median !resets in
  let ops = traced_ops in
  let decided = sumi (fun o -> o.decisions) ops in
  let c, cl = snapshot_counts ops in
  let per_decision x = ratio x decided in
  let turquois_layers =
    match (spec.turquois, keys) with
    | Some (phases, cfg, proposals), Turquois_keys keyrings ->
        let keyrings =
          if cfg.Core.Proto.max_phases = phases then keyrings
          else Array.map (fun k -> Core.Keyring.slice k ~offset:0 ~phases:cfg.max_phases) keyrings
        in
        let r =
          Layers.replay ~keyrings ~cfg ~proposals
            ~seed:(Util.Rng.derive ~base:seed [ 0x4e9 ]) ~max_rounds:40
        in
        let gen_ms, check_ns = Layers.onetime ~phases ~seed:(Util.Rng.derive ~base:seed [ 0x07 ]) in
        Some (r, gen_ms, check_ns)
    | _ -> None
  in
  let z f = match turquois_layers with Some x -> f x | None -> 0.0 in
  let replay f = z (fun (r, _, _) -> f r) in
  let frames = sumi (fun o -> o.frames) ops in
  let payload_bytes =
    max 1 ((sumi (fun o -> o.bytes) ops / max 1 frames) - Net.Mac.Const.header_bytes)
  in
  let live = int_of_float (Layers.median (List.map (fun o -> float_of_int o.live_peak) ops)) in
  let step_ns = Layers.engine_step_ns ~live ~seed:(Util.Rng.derive ~base:seed [ 0xe9 ]) in
  let frame_us =
    Layers.mac_frame_us ~n:spec.n ~payload_bytes ~unicast:spec.unicast
      ~seed:(Util.Rng.derive ~base:seed [ 0x3ac ])
  in
  let coin_us = if spec.abba then Layers.coin ~n:spec.n ~seed:(Util.Rng.derive ~base:seed [ 0xc0 ]) else 0.0 in
  let tx = c "mac.tx" and bcast = cl ~labels:[ ("class", "bcast") ] "mac.tx" in
  let rejected = c "validation.rejected" and dups = c "validation.duplicates" in
  let accepted = c "validation.accepted" in
  let log_slots = c "log.slot.committed" + c "log.slot.skipped" in
  let overhead_ms = Layers.median traced_ms -. Layers.median untraced_ms in
  let is_setup name = if spec.setup_name = name then setup_s else 0.0 in
  let metrics =
    [
      m "core.keyring.setup_s" "s" (is_setup "core.keyring.setup");
      m "baselines.abba.setup_keys_s" "s" (is_setup "baselines.abba.setup_keys");
      m "crypto.rsa.generate_ms" "ms" rsa_generate_ms;
      m "crypto.onetime_sig.generate_ms" "ms" (z (fun (_, g, _) -> g));
      m "core.machine.emit_us" "us" (replay (fun r -> r.Layers.emit_us));
      m "core.machine.encode_envelope_us" "us" (replay (fun r -> r.encode_envelope_us));
      m "core.machine.handle_wire_us" "us" (replay (fun r -> r.handle_wire_us));
      m "core.machine.handle_wire_self_us" "us" (replay (fun r -> r.handle_wire_self_us));
      m "core.message.decode_wire_ns" "ns" (replay (fun r -> r.message_decode_wire_ns));
      m "core.intern.decode_wire_ns" "ns" (replay (fun r -> r.intern_decode_wire_ns));
      m "core.intern.check_message_ns" "ns" (replay (fun r -> r.check_message_ns));
      m "core.vset.add_ns" "ns" (replay (fun r -> r.vset_add_ns));
      m "crypto.sha256.digest_ns" "ns" (replay (fun r -> r.sha256_digest_ns));
      m "crypto.onetime_sig.check_ns" "ns" (z (fun (_, _, k) -> k));
      m "core.intern.decode_hit_ratio" "ratio"
        (ratio (c "codec.decode.memo_hit") (c "codec.decode.memo_hit" + c "codec.decode.memo_miss"));
      m "core.intern.verify_hit_ratio" "ratio"
        (ratio (c "crypto.verify.cache_hit") (c "crypto.verify.cache_hit" + c "crypto.verify.cache_miss"));
      m "core.validation.accepted_ratio" "ratio" (ratio accepted (accepted + rejected + dups));
      m "core.proto.justified_ratio" "ratio" (ratio (c "proto.justified") (c "proto.broadcasts"));
      m "core.compact.unresolved_per_decision" "count" (per_decision (c "compact.unresolved"));
      m "core.proto.msgs_per_decision" "count" (per_decision (c "proto.msgs_sent"));
      m "net.engine.step_ns" "ns" step_ns;
      m "net.engine.live_peak" "count" (float_of_int live);
      m "net.mac.frame_us" "us" frame_us;
      m "net.mac.backoff_slots_per_frame" "count" (ratio (c "mac.backoff_slots") tx);
      m "net.mac.replaced_ratio" "ratio" (ratio (c "mac.replaced") (c "mac.replaced" + bcast));
      m "net.radio.collision_ratio" "ratio" (ratio (c "radio.collisions") (c "radio.tx"));
      m "net.radio.frames_per_decision" "count" (per_decision frames);
      m "net.rlink.retransmits_per_decision" "count" (per_decision (c "rlink.retransmits"));
      m "crypto.coin.verify_share_us" "us" coin_us;
      m "crypto.rsa.verify_us" "us" (if spec.abba then rsa_verify_us else 0.0);
      m "core.ordered_log.noop_ratio" "ratio" (ratio (c "log.slot.skipped") log_slots);
      m "core.ordered_log.cmds_per_slot" "count"
        (ratio (c "log.batch.commands") (c "log.batch.slots"));
      m "obs.scope.with_run_us" "us" with_run_us;
    ]
    @ List.map (fun x -> { x with mname = "bench." ^ x.mname }) host
    @ [
      m "bench.trace_overhead_ms" "ms" overhead_ms;
      m "bench.spans" "count" (float_of_int (Span.recorded ()));
    ]
  in
  let all = window_ops @ untraced_ops @ traced_ops in
  let detail =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String spec.name);
        ("seed", Obs.Json.String (Int64.to_string seed));
        ("trace_ops", Obs.Json.Int spec.trace_ops);
        ("tail", tail);
        ("untraced_wall_ms_p50", Obs.Json.Float (Layers.median untraced_ms));
        ("traced_wall_ms_p50", Obs.Json.Float (Layers.median traced_ms));
        ( "replay_rounds",
          Obs.Json.Int (match turquois_layers with Some (r, _, _) -> r.rounds | None -> 0) );
      ]
  in
  (metrics, detail, List.length all, failures all)

(* --- entry point ------------------------------------------------------------------ *)

let check_record path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse text with
  | Error e ->
      Printf.eprintf "perfbench: %s: %s\n" path e;
      exit 2
  | Ok json -> (
      match Gate.violations (Gate.of_json json) with
      | [] -> print_endline "record holds"
      | problems ->
          List.iter (fun p -> Printf.eprintf "perfbench: %s\n" p) problems;
          exit 3)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and record = ref "" and spans_out = ref "" in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced per-layer pass");
      ("--tiny", Arg.Set tiny, " shrink every size (self-test)");
      ("--spans-out", Arg.Set_string spans_out, " FILE for the traced pass's spans");
      ("--check-record", Arg.Set_string record, " FILE: run the correctness gate on a record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !record <> "" then check_record !record
  else begin
    if not (List.mem !workload names) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " names);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace must be 0 or 1";
      exit 2
    end;
    let spec = find ~tiny:!tiny !workload in
    let seed = Int64.of_int !seed in
    let metrics, detail, attempted, failed =
      if !trace = 0 then end_to_end spec ~seed ~seconds:!seconds
      else per_layer spec ~seed ~seconds:!seconds
    in
    if !trace = 1 && !spans_out <> "" then Span.write !spans_out;
    Printf.printf "perfbench %s seed=%Ld trace=%d\n" spec.name seed !trace;
    print_table metrics;
    print_endline (Obs.Json.to_string detail);
    print_endline (result_line ~attempted ~failed metrics)
  end
