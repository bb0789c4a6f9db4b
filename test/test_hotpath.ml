(* The hot-path contract (frame interning, proof-digest memoization,
   seed-derived key material, encode-once, SHA-256 fast path, Vset tallies):
   the fast path may change wall-clock time only, never a simulated
   result. Every test here compares the memoized world against the
   plain one, or an incremental structure against its naive
   recomputation. *)

module P = Core.Proto
module I = Core.Intern

let mk ?(sender = 0) ~phase ?(value = P.V1) ?(origin = P.Deterministic)
    ?(status = P.Undecided) ?(proof = Bytes.empty) () =
  { Core.Message.sender; phase; value; origin; status; proof }

(* a run result with the memo instrumentation counters projected out —
   the only series allowed to differ between the two worlds *)
let strip (r : Harness.Runner.result) =
  { r with metrics = I.strip_metrics r.metrics }

let both f =
  let pass memo =
    I.with_memo memo (fun () ->
        Harness.Runner.clear_key_cache ();
        f ())
  in
  (pass false, pass true)

(* --- memo on/off equivalence ------------------------------------------------ *)

let test_strategies_equivalent () =
  List.iter
    (fun strategy ->
      let off, on =
        both (fun () ->
            Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
              ~dist:Harness.Runner.Divergent ~load:Net.Fault.Byzantine ~strategy
              ~seed:99L ())
      in
      Alcotest.(check bool)
        (Core.Strategy.name strategy)
        true
        (strip off = strip on))
    Core.Strategy.all

let test_chaos_plan_equivalent () =
  (* the full adversarial mix — rotating strategies, random schedules,
     all three protocols — must be invisible to the memo switch *)
  let off, on = both (fun () -> Harness.Chaos.run_chaos ~n:4 ~runs:4 ~jobs:1 ~seed:31L ()) in
  Alcotest.(check bool) "reports equal" true (off = on)

let test_sweep_equivalent_and_parallel () =
  let k = 4 - Net.Fault.max_f 4 in
  let sweep jobs () =
    Harness.Sweeps.sigma_sweep_merged ~n:4 ~k ~runs_per_point:2 ~rounds:25 ~beyond:1
      ~base_seed:77L ~jobs ()
  in
  let (rows_off, m_off), (rows_on, m_on) = both (sweep 1) in
  Alcotest.(check bool) "rows equal" true (rows_off = rows_on);
  Alcotest.(check bool) "metrics equal" true
    (I.strip_metrics m_off = I.strip_metrics m_on);
  (* per-run clearing keeps each task's hit/miss pattern deterministic,
     so with the memo on even the instrumentation counters must be
     bit-identical across worker counts *)
  let on_j2 = I.with_memo true (sweep 2) in
  Alcotest.(check bool) "-j 1 = -j 2 with memo on" true ((rows_on, m_on) = on_j2)

(* --- instrumentation -------------------------------------------------------- *)

let run_failure_free () =
  Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
    ~dist:Harness.Runner.Unanimous ~load:Net.Fault.Failure_free ~seed:3L ()

let test_memo_off_emits_no_counters () =
  let r = I.with_memo false run_failure_free in
  List.iter
    (fun name ->
      Alcotest.(check int) name 0 (Obs.Metrics.counter_value r.metrics name))
    I.memo_series

let test_memo_on_hits () =
  (* a broadcast reaches n-1 receivers: all but the first decode of a
     payload and all but the first hash of a proof must hit *)
  let r = I.with_memo true run_failure_free in
  Alcotest.(check bool) "decode hits" true
    (Obs.Metrics.counter_value r.metrics "codec.decode.memo_hit" > 0);
  Alcotest.(check bool) "digest hits" true
    (Obs.Metrics.counter_value r.metrics "crypto.verify.cache_hit" > 0)

let test_with_memo_restores () =
  let before = I.enabled () in
  I.with_memo false (fun () ->
      Alcotest.(check bool) "off inside" false (I.enabled ()));
  Alcotest.(check bool) "restored" before (I.enabled ());
  (try I.with_memo false (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" before (I.enabled ())

(* --- profiler / causal tracing invisibility ---------------------------------- *)

let small_sweep jobs () =
  let k = 4 - Net.Fault.max_f 4 in
  Harness.Sweeps.sigma_sweep_merged ~n:4 ~k ~runs_per_point:2 ~rounds:25 ~beyond:1
    ~base_seed:77L ~jobs ()

let test_profiler_invisible_to_results () =
  (* the span profiler reads the host clock only; with it on, simulated
     results must stay bit-identical to a plain run at -j 1 and -j 2 *)
  let plain = small_sweep 1 () in
  Obs.Prof.with_profiling true (fun () ->
      Alcotest.(check bool) "profiled -j1 = plain" true (small_sweep 1 () = plain);
      Alcotest.(check bool) "profiled samples collected" true
        (List.exists (fun (s : Obs.Prof.stat) -> s.count > 0) (Obs.Prof.snapshot ()));
      Alcotest.(check bool) "profiled -j2 = plain" true (small_sweep 2 () = plain));
  Alcotest.(check bool) "profiling restored off" false (Obs.Prof.on ())

let test_causal_tracing_invisible_to_results () =
  (* tracing turns on mid minting and byte aliasing across every layer;
     none of it may touch the simulation clock, RNG or metrics *)
  let plain = small_sweep 1 () in
  Obs.Trace2.start ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace2.stop ();
      Obs.Trace2.clear ())
    (fun () ->
      Alcotest.(check bool) "traced -j1 = plain" true (small_sweep 1 () = plain);
      Alcotest.(check bool) "traced -j2 = plain" true (small_sweep 2 () = plain))

let test_profiler_span_mechanics () =
  Obs.Prof.with_profiling true (fun () ->
      Obs.Prof.reset ();
      let t0 = Obs.Prof.start () in
      Alcotest.(check bool) "start yields a real timestamp" true (t0 >= 0.0);
      Obs.Prof.stop Obs.Prof.decode t0;
      let stat =
        List.find
          (fun (s : Obs.Prof.stat) -> s.name = Obs.Prof.span_name Obs.Prof.decode)
          (Obs.Prof.snapshot ())
      in
      Alcotest.(check int) "one sample" 1 stat.count;
      Alcotest.(check bool) "quantile within bucket bounds" true
        (Obs.Prof.bucket_quantile stat 0.5 >= stat.max_ns));
  (* off: the sentinel makes stop a no-op *)
  Obs.Prof.reset ();
  let t0 = Obs.Prof.start () in
  Alcotest.(check bool) "sentinel when off" true (t0 < 0.0);
  Obs.Prof.stop Obs.Prof.decode t0;
  Alcotest.(check bool) "no sample recorded when off" true
    (List.for_all (fun (s : Obs.Prof.stat) -> s.count = 0) (Obs.Prof.snapshot ()))

(* --- cache poisoning -------------------------------------------------------- *)

let keyrings = lazy (Core.Keyring.setup (Util.Rng.create ~seed:5L) ~n:2 ~phases:4 ())

let signed_envelope () =
  let keyrings = Lazy.force keyrings in
  let proof =
    Core.Keyring.sign keyrings.(0) ~phase:1 ~value:P.V1 ~origin:P.Deterministic
  in
  { Core.Message.msg = mk ~sender:0 ~phase:1 ~proof (); justification = [] }

(* flip one payload byte, scanning from the tail (the proof bytes), so
   the forgery shares a long prefix with the valid frame but still
   decodes to a different envelope *)
let forge payload =
  let reference = Core.Message.decode payload in
  let rec go i =
    if i < 0 then Alcotest.fail "no forgeable byte found"
    else begin
      let b = Bytes.copy payload in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      match Core.Message.decode b with
      | e when e <> reference -> b
      | _ -> go (i - 1)
      | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> go (i - 1)
    end
  in
  go (Bytes.length payload - 1)

let test_decode_cache_rejects_forged_prefix () =
  let envelope = signed_envelope () in
  let payload = Core.Message.encode envelope in
  let forged = forge payload in
  let (), snap =
    Obs.Scope.with_run (fun () ->
        I.with_memo true (fun () ->
            let e1 = I.decode_wire payload in
            let e2 = I.decode_wire (Bytes.copy payload) in
            Alcotest.(check bool) "same payload same wire frame" true (e1 = e2);
            let e3 = I.decode_wire forged in
            Alcotest.(check bool) "forged payload never hits the valid entry" true
              (e3 <> e1);
            Alcotest.(check bool) "forged decode matches plain decode" true
              (e3 = Core.Message.decode_wire forged)))
  in
  (* hits only on exact byte equality: the content-equal copy hit, the
     prefix-sharing forgery missed *)
  Alcotest.(check int) "one hit" 1
    (Obs.Metrics.counter_value snap "codec.decode.memo_hit");
  Alcotest.(check int) "two misses" 2
    (Obs.Metrics.counter_value snap "codec.decode.memo_miss")

let test_digest_memo_rejects_forged_proof () =
  let keyrings = Lazy.force keyrings in
  let envelope = signed_envelope () in
  let valid = envelope.Core.Message.msg in
  let forged_proof = Bytes.copy valid.Core.Message.proof in
  Bytes.set forged_proof
    (Bytes.length forged_proof - 1)
    (Char.chr (Char.code (Bytes.get forged_proof (Bytes.length forged_proof - 1)) lxor 1));
  let forged = { valid with Core.Message.proof = forged_proof } in
  let (), snap =
    Obs.Scope.with_run (fun () ->
        I.with_memo true (fun () ->
            Alcotest.(check bool) "valid accepted (miss)" true
              (I.check_message keyrings.(1) valid);
            Alcotest.(check bool) "valid accepted (hit)" true
              (I.check_message keyrings.(1) valid);
            Alcotest.(check bool) "forged rejected through the memo" false
              (I.check_message keyrings.(1) forged);
            Alcotest.(check bool) "memo verdicts match plain verdicts" true
              (Core.Keyring.check_message keyrings.(1) valid
              && not (Core.Keyring.check_message keyrings.(1) forged))))
  in
  Alcotest.(check int) "one hit" 1
    (Obs.Metrics.counter_value snap "crypto.verify.cache_hit");
  Alcotest.(check int) "two misses" 2
    (Obs.Metrics.counter_value snap "crypto.verify.cache_miss")

(* Every memoized entry point must agree with its plain counterpart on
   arbitrary input: random signed frames, plain and compact, and
   byte-flip / truncation mutants of them. Each input goes through the
   memo twice (miss, then hit) and once more after [Intern.clear]; an
   exception the plain function raises must be raised identically. *)
let qcheck_memos_match_plain =
  let keyrings = Lazy.force keyrings in
  let n = Array.length keyrings in
  let msg_gen =
    QCheck.Gen.(
      let* sender = int_bound (n - 1) in
      let* phase = int_range 1 4 in
      let* value = oneofl [ P.V0; P.V1; P.Vbot ] in
      let* origin = oneofl [ P.Deterministic; P.Random ] in
      let* status = oneofl [ P.Undecided; P.Decided ] in
      let proof = Core.Keyring.sign keyrings.(sender) ~phase ~value ~origin in
      return (mk ~sender ~phase ~value ~origin ~status ~proof ()))
  in
  let entry_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun m -> Core.Message.Full m) msg_gen;
          map (fun m -> Core.Message.Ref (Core.Message.msg_digest m)) msg_gen;
        ])
  in
  let mutation_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun at mask -> `Flip (at, mask)) nat (int_range 1 255);
          map (fun len -> `Cut len) nat;
        ])
  in
  let mutate b = function
    | `Flip (at, mask) when Bytes.length b > 0 ->
        let b = Bytes.copy b and at = at mod Bytes.length b in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
        b
    | `Flip _ -> b
    | `Cut len -> Bytes.sub b 0 (len mod (Bytes.length b + 1))
  in
  let gen =
    QCheck.Gen.(
      let* wmsg = msg_gen in
      let* compact = bool in
      let full = map (fun m -> Core.Message.Full m) msg_gen in
      let* just = list_size (int_bound 3) (if compact then entry_gen else full) in
      (* a compact frame carries at least one back-reference *)
      let* first_ref = map (fun m -> Core.Message.Ref (Core.Message.msg_digest m)) msg_gen in
      let wjust = if compact then first_ref :: just else just in
      let* mutations = list_size (int_bound 2) mutation_gen in
      return
        (List.fold_left mutate (Core.Message.encode_wire { Core.Message.wmsg; wjust }) mutations))
  in
  let outcome f x = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  (* plain reference vs memo miss, memo hit and memo miss after a clear *)
  let agrees plain memo x =
    let expected = outcome plain x in
    let first = outcome memo x in
    let second = outcome memo x in
    I.clear ();
    let third = outcome memo x in
    first = expected && second = expected && third = expected
  in
  QCheck.Test.make ~name:"memos match plain decode, digest and verify" ~count:500
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen)
    (fun frame ->
      let ok, _ =
        Obs.Scope.with_run (fun () ->
            I.with_memo true (fun () ->
                agrees Core.Message.decode_wire I.decode_wire frame
                &&
                match Core.Message.decode_wire frame with
                | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> true
                | wire ->
                    let msgs =
                      wire.Core.Message.wmsg
                      :: List.filter_map
                           (function Core.Message.Full m -> Some m | Core.Message.Ref _ -> None)
                           wire.wjust
                    in
                    List.for_all
                      (fun m ->
                        agrees Core.Message.msg_digest I.message_digest m
                        && Array.for_all
                             (fun kr ->
                               agrees (Core.Keyring.check_message kr)
                                 (I.check_message kr) m)
                             keyrings)
                      msgs))
      in
      ok)

(* --- sha256 fast path ------------------------------------------------------- *)

let test_sha256_fast_path_matches_streaming () =
  (* the one-block path covers len <= 55; cross the boundary and the
     two-block region to make sure both worlds agree *)
  let rng = Util.Rng.create ~seed:11L in
  for len = 0 to 70 do
    let data = Util.Rng.bytes rng len in
    let streamed =
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.update ctx data;
      Crypto.Sha256.finalize ctx
    in
    Alcotest.(check bool)
      (Printf.sprintf "len %d" len)
      true
      (Bytes.equal (Crypto.Sha256.digest data) streamed)
  done

let test_sha256_digest_not_aliased () =
  (* the fast path reuses domain-local scratch; the returned digest must
     still be a fresh buffer every call *)
  let a = Bytes.of_string "proof-a" in
  let b = Bytes.of_string "proof-b" in
  let da = Crypto.Sha256.digest a in
  let copy = Bytes.copy da in
  let db = Crypto.Sha256.digest b in
  Alcotest.(check bool) "first digest unchanged" true (Bytes.equal da copy);
  Alcotest.(check bool) "digests differ" false (Bytes.equal da db)

(* --- encode scratch --------------------------------------------------------- *)

let test_encode_scratch_returns_fresh_bytes () =
  let e1 = { Core.Message.msg = mk ~phase:1 ~value:P.V1 (); justification = [] } in
  let e2 =
    {
      Core.Message.msg = mk ~sender:1 ~phase:2 ~value:P.V0 ();
      justification = [ mk ~phase:1 () ];
    }
  in
  let b1 = Core.Message.encode e1 in
  let copy = Bytes.copy b1 in
  let b2 = Core.Message.encode e2 in
  Alcotest.(check bool) "first encoding unchanged by the second" true
    (Bytes.equal b1 copy);
  Alcotest.(check bool) "encodings differ" false (Bytes.equal b1 b2);
  Alcotest.(check bool) "roundtrip" true (Core.Message.decode b1 = e1)

(* --- vset incremental tallies ----------------------------------------------- *)

let test_vset_tallies_match_naive_recount () =
  let rng = Util.Rng.create ~seed:21L in
  for _trial = 1 to 50 do
    let v = Core.Vset.create ~n:4 in
    for _ = 1 to 30 do
      let sender = Util.Rng.int rng 4 in
      let phase = 1 + Util.Rng.int rng 6 in
      let value =
        match Util.Rng.int rng 3 with 0 -> P.V0 | 1 -> P.V1 | _ -> P.Vbot
      in
      ignore (Core.Vset.add v (mk ~sender ~phase ~value ()))
    done;
    for phase = 1 to 6 do
      let msgs = Core.Vset.messages_at v ~phase in
      let senders =
        List.sort_uniq compare
          (List.map (fun (m : Core.Message.t) -> m.sender) msgs)
      in
      Alcotest.(check int) "count_phase" (List.length senders)
        (Core.Vset.count_phase v ~phase);
      List.iter
        (fun value ->
          let expected =
            List.length
              (List.filter
                 (fun s ->
                   List.exists
                     (fun (m : Core.Message.t) -> m.sender = s && m.value = value)
                     msgs)
                 senders)
          in
          Alcotest.(check int) "count_value" expected
            (Core.Vset.count_value v ~phase ~value))
        [ P.V0; P.V1; P.Vbot ]
    done
  done

(* --- seed-derived key material ----------------------------------------------- *)

let test_keyrings_seed_derived () =
  let proofs rings =
    List.concat_map
      (fun phase ->
        List.concat_map
          (fun (value, origin) ->
            List.map
              (fun kr -> Core.Keyring.sign kr ~phase ~value ~origin)
              (Array.to_list rings))
          [ (P.V0, P.Deterministic); (P.V1, P.Random); (P.Vbot, P.Deterministic) ])
      [ 1; 2; 3; 4 ]
  in
  let a = Harness.Runner.keyrings_for ~seed:123L ~n:2 ~phases:4 in
  let b = Harness.Runner.keyrings_for ~seed:123L ~n:2 ~phases:4 in
  Alcotest.(check (list bytes)) "same seed, byte-identical proofs" (proofs a) (proofs b);
  let c = Harness.Runner.keyrings_for ~seed:124L ~n:2 ~phases:4 in
  let proof = Core.Keyring.sign a.(0) ~phase:2 ~value:P.V1 ~origin:P.Deterministic in
  Alcotest.(check bool) "accepted under its own keys" true
    (Core.Keyring.check b.(1) ~signer:0 ~phase:2 ~value:P.V1 ~origin:P.Deterministic ~proof);
  Alcotest.(check bool) "rejected under another seed's keys" false
    (Core.Keyring.check c.(1) ~signer:0 ~phase:2 ~value:P.V1 ~origin:P.Deterministic ~proof)

let suite =
  ( "hotpath",
    [
      Alcotest.test_case "strategies memo-equivalent" `Quick test_strategies_equivalent;
      Alcotest.test_case "chaos plan memo-equivalent" `Quick test_chaos_plan_equivalent;
      Alcotest.test_case "sweep memo-equivalent and parallel" `Quick
        test_sweep_equivalent_and_parallel;
      Alcotest.test_case "memo off emits no counters" `Quick
        test_memo_off_emits_no_counters;
      Alcotest.test_case "memo on hits" `Quick test_memo_on_hits;
      Alcotest.test_case "with_memo restores" `Quick test_with_memo_restores;
      Alcotest.test_case "profiler invisible to results" `Quick
        test_profiler_invisible_to_results;
      Alcotest.test_case "causal tracing invisible to results" `Quick
        test_causal_tracing_invisible_to_results;
      Alcotest.test_case "profiler span mechanics" `Quick test_profiler_span_mechanics;
      Alcotest.test_case "decode cache rejects forged prefix" `Quick
        test_decode_cache_rejects_forged_prefix;
      QCheck_alcotest.to_alcotest qcheck_memos_match_plain;
      Alcotest.test_case "digest memo rejects forged proof" `Quick
        test_digest_memo_rejects_forged_proof;
      Alcotest.test_case "sha256 fast path" `Quick test_sha256_fast_path_matches_streaming;
      Alcotest.test_case "sha256 digest not aliased" `Quick test_sha256_digest_not_aliased;
      Alcotest.test_case "encode scratch fresh" `Quick test_encode_scratch_returns_fresh_bytes;
      Alcotest.test_case "vset tallies" `Quick test_vset_tallies_match_naive_recount;
      Alcotest.test_case "keyrings seed-derived" `Quick test_keyrings_seed_derived;
    ] )
