(* Host time per layer, measured by calls the benchmark makes itself
   with each workload's parameters. Every timed region is a span, so the
   traced pass records them; no span goes inside the library. *)

let median = function [] -> 0.0 | l -> Util.Stats.percentile l 0.5

(* Repeats [pass] (which performs [calls] calls and returns nothing)
   until [min_s] has elapsed over at least [min_reps] passes; the
   per-call seconds of the median pass. *)
let per_call ?(min_reps = 3) ?(min_s = 0.05) name ~calls pass =
  let rec go reps acc total =
    if reps >= min_reps && total >= min_s then median acc /. float_of_int (max 1 calls)
    else
      let dt = Span.time name pass in
      go (reps + 1) (dt :: acc) (total +. dt)
  in
  go 0 [] 0.0

(* --- lockstep replay of the workload's Turquois traffic ------------------- *)

type replay = {
  emit_us : float;
  encode_envelope_us : float;
  handle_wire_us : float;
  handle_wire_self_us : float;
  message_decode_wire_ns : float;
  intern_decode_wire_ns : float;
  check_message_ns : float;
  vset_add_ns : float;
  sha256_digest_ns : float;
  rounds : int;
  frames : int;
}

(* Every machine emits once per round (justifying when its state did
   not move since its last broadcast, as the shell's tick does) and
   every other machine receives every frame through the shell's receive
   path, [Intern.decode_wire] then [Machine.handle_wire], until all
   decide or [max_rounds] pass. *)
let run_rounds ~keyrings ~cfg ~proposals ~seed ~max_rounds =
  let n = Array.length keyrings in
  let rng = Util.Rng.create ~seed in
  let machines =
    Util.Init.array n (fun i ->
        Core.Machine.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng)
          ~proposal:proposals.(i) ())
  in
  let emit_s = ref 0.0 and emits = ref 0 in
  let encode_s = ref 0.0 and encodes = ref 0 in
  let handle_s = ref 0.0 and handles = ref 0 in
  let deliveries = ref [] in
  let rounds = ref 0 in
  let all_decided () =
    Array.for_all (fun m -> Option.is_some (Core.Machine.decision m)) machines
  in
  while !rounds < max_rounds && not (all_decided ()) do
    incr rounds;
    ignore @@ Span.time "replay.round" (fun () ->
        let frames = ref [] in
        Array.iteri
          (fun i m ->
            let justify = Core.Machine.same_state_as_last_broadcast m in
            let tx, dt =
              Span.with_ "core.machine.emit" (fun () -> Core.Machine.emit m ~justify)
            in
            emit_s := !emit_s +. dt;
            incr emits;
            match tx with
            | Core.Machine.Broadcast envelope ->
                let bytes, dt =
                  Span.with_ "core.machine.encode_envelope" (fun () ->
                      Core.Machine.encode_envelope m envelope)
                in
                encode_s := !encode_s +. dt;
                incr encodes;
                frames := (i, bytes) :: !frames
            | Core.Machine.Quiet | Core.Machine.Per_receiver _ -> ())
          machines;
        List.iter
          (fun (sender, bytes) ->
            Array.iteri
              (fun r m ->
                if r <> sender then begin
                  deliveries := (r, bytes) :: !deliveries;
                  match Core.Intern.decode_wire bytes with
                  | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
                  | wire ->
                      let _, dt =
                        Span.with_ "core.machine.handle_wire" (fun () ->
                            Core.Machine.handle_wire m wire)
                      in
                      handle_s := !handle_s +. dt;
                      incr handles
                end)
              machines)
          (List.rev !frames))
  done;
  let avg s k = if k = 0 then 0.0 else s /. float_of_int k in
  ( avg !emit_s !emits,
    avg !encode_s !encodes,
    !handle_s,
    !handles,
    List.rev !deliveries,
    !rounds )

(* The replay's frames fed one layer at a time, each pass from fresh
   per-run memos (a [with_run] scope), in delivery order. *)
let feed ~keyrings ~n deliveries =
  let fresh f = fst (Obs.Scope.with_run f) in
  let frames = List.sort_uniq compare (List.map snd deliveries) in
  let nframes = List.length frames in
  let ndeliv = List.length deliveries in
  let decode_ns =
    1e9
    *. per_call "core.message.decode_wire" ~calls:nframes (fun () ->
           List.iter (fun b -> ignore (Core.Message.decode_wire b)) frames)
  in
  let intern_ns =
    1e9
    *. per_call "core.intern.decode_wire" ~calls:ndeliv (fun () ->
           fresh (fun () ->
               List.iter (fun (_, b) -> ignore (Core.Intern.decode_wire b)) deliveries))
  in
  (* the messages each delivery carries in full, paired with its receiver *)
  let carried =
    List.concat_map
      (fun (r, b) ->
        let w = Core.Message.decode_wire b in
        (r, w.Core.Message.wmsg)
        :: List.filter_map
             (function Core.Message.Full m -> Some (r, m) | Core.Message.Ref _ -> None)
             w.Core.Message.wjust)
      deliveries
  in
  let ncarried = List.length carried in
  let check_ns =
    1e9
    *. per_call "core.intern.check_message" ~calls:ncarried (fun () ->
           fresh (fun () ->
               List.iter
                 (fun (r, m) -> ignore (Core.Intern.check_message keyrings.(r) m))
                 carried))
  in
  let vset_ns =
    1e9
    *. per_call "core.vset.add" ~calls:ncarried (fun () ->
           fresh (fun () ->
               let sets = Array.init n (fun _ -> Core.Vset.create ~n) in
               List.iter (fun (r, m) -> ignore (Core.Vset.add sets.(r) m)) carried))
  in
  let proofs =
    List.sort_uniq compare (List.map (fun (_, m) -> m.Core.Message.proof) carried)
  in
  let sha_ns =
    1e9
    *. per_call "crypto.sha256.digest" ~calls:(List.length proofs) (fun () ->
           List.iter (fun p -> ignore (Crypto.Sha256.digest p)) proofs)
  in
  (decode_ns, intern_ns, check_ns, vset_ns, sha_ns, nframes, ncarried)

let replay ~keyrings ~(cfg : Core.Proto.config) ~proposals ~seed ~max_rounds =
  let (emit_us, encode_us, handle_s, handles, deliveries, rounds), _ =
    Obs.Scope.with_run (fun () ->
        run_rounds ~keyrings ~cfg ~proposals ~seed ~max_rounds)
  in
  let decode_ns, intern_ns, check_ns, vset_ns, sha_ns, frames, carried =
    feed ~keyrings ~n:cfg.n deliveries
  in
  let handle_us = if handles = 0 then 0.0 else 1e6 *. handle_s /. float_of_int handles in
  (* handle_wire's children are the authenticity check and the V-set
     insert of every message a frame carries in full; what is left is
     its own work (reference resolution, validation, transitions) *)
  let children_us =
    if handles = 0 then 0.0
    else 1e-3 *. float_of_int carried *. (check_ns +. vset_ns) /. float_of_int handles
  in
  {
    emit_us = 1e6 *. emit_us;
    encode_envelope_us = 1e6 *. encode_us;
    handle_wire_us = handle_us;
    handle_wire_self_us = handle_us -. children_us;
    message_decode_wire_ns = decode_ns;
    intern_decode_wire_ns = intern_ns;
    check_message_ns = check_ns;
    vset_add_ns = vset_ns;
    sha256_digest_ns = sha_ns;
    rounds;
    frames;
  }

(* --- crypto ---------------------------------------------------------------- *)

(* one-time key generation for one signer at the workload's horizon, and
   one check of each revealed key *)
let onetime ~phases ~seed =
  let rng = Util.Rng.create ~seed in
  let gens = ref [] and keys = ref None in
  for _ = 1 to 3 do
    let k, dt =
      Span.with_ "crypto.onetime_sig.generate" (fun () ->
          Crypto.Onetime_sig.generate rng ~owner:0 ~phases)
    in
    gens := dt :: !gens;
    keys := Some k
  done;
  let secret, verifier = Option.get !keys in
  let checks =
    List.init (min phases 300) (fun i ->
        let phase = i + 1 in
        let slot = Crypto.Onetime_sig.slot_of_index (i mod Crypto.Onetime_sig.slot_count) in
        (phase, slot, Crypto.Onetime_sig.reveal secret ~phase slot))
  in
  let check_s =
    per_call "crypto.onetime_sig.check" ~calls:(List.length checks) (fun () ->
        List.iter
          (fun (phase, slot, proof) ->
            if not (Crypto.Onetime_sig.check verifier ~phase slot ~proof) then
              failwith "one-time signature rejected its own key")
          checks)
  in
  (1e3 *. median !gens, 1e9 *. check_s)

let rsa ~seed =
  let rng = Util.Rng.create ~seed in
  let gens = ref [] and kp = ref None in
  for _ = 1 to 3 do
    let k, dt = Span.with_ "crypto.rsa.generate" (fun () -> Crypto.Rsa.generate rng ~bits:512) in
    gens := dt :: !gens;
    kp := Some k
  done;
  let kp = Option.get !kp in
  let msg = Bytes.of_string "pre|1|0" in
  let signature = Crypto.Rsa.sign kp.Crypto.Rsa.sec msg in
  let verify_s =
    per_call "crypto.rsa.verify" ~calls:20 (fun () ->
        for _ = 1 to 20 do
          if not (Crypto.Rsa.verify kp.pub msg ~signature) then
            failwith "RSA rejected its own signature"
        done)
  in
  (1e3 *. median !gens, 1e6 *. verify_s)

(* ABBA's threshold coin at the workload's size: one share per party
   for one coin name, each verified *)
let coin ~n ~seed =
  let rng = Util.Rng.create ~seed in
  let params, keys = Crypto.Coin.setup rng ~n ~threshold:(Net.Fault.max_f n + 1) () in
  let shares = Array.map (fun ks -> Crypto.Coin.create_share params ks ~name:"coin|1") keys in
  1e6
  *. per_call "crypto.coin.verify_share" ~calls:n (fun () ->
         Array.iter
           (fun s ->
             if not (Crypto.Coin.verify_share params ~name:"coin|1" s) then
               failwith "coin share rejected")
           shares)

(* --- network --------------------------------------------------------------- *)

(* one engine step at a fixed live-event population: each event that
   fires schedules its successor *)
let engine_step_ns ~live ~seed =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let rec event () = ignore (Net.Engine.schedule engine ~delay:(Util.Rng.float rng 0.01) event) in
  for _ = 1 to max 1 live do
    event ()
  done;
  let steps = 20_000 in
  1e9
  *. per_call "net.engine.step" ~calls:steps (fun () ->
         for _ = 1 to steps do
           ignore (Net.Engine.step engine)
         done)

(* frames of the workload's mean size sent through n MACs sharing one
   radio, host time per frame until the medium drains *)
let mac_frame_us ~n ~payload_bytes ~unicast ~seed =
  let frames = 50 * n in
  let pass () =
    ignore
      (Obs.Scope.with_run (fun () ->
           let engine = Net.Engine.create () in
           let rng = Util.Rng.create ~seed in
           let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
           let macs =
             Util.Init.array n (fun id ->
                 Net.Mac.create engine radio ~id ~rng:(Util.Rng.split rng))
           in
           Array.iter (fun m -> Net.Mac.on_deliver m (fun ~src:_ _ -> ())) macs;
           let payload = Bytes.make payload_bytes '\x5a' in
           for k = 0 to frames - 1 do
             let m = macs.(k mod n) in
             if unicast then Net.Mac.send_unicast m ~dst:((k + 1) mod n) payload
             else Net.Mac.send_broadcast m payload
           done;
           Net.Engine.run engine))
  in
  1e6 *. per_call "net.mac.send" ~calls:frames pass
