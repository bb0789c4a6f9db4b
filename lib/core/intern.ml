(* Frame interning: the per-run, domain-local memo tables of the
   receive hot path.

   A broadcast frame is delivered to n receivers, each of which decodes
   the same payload bytes and hashes the same one-time-signature proofs
   independently — n-1 of those decodes and hashes are pure recompute.
   Two memo tables eliminate them:

   - [decodes]: exact payload bytes -> decoded envelope. Keys are the
     full frame contents (structural hashing and equality cover every
     byte), so a Byzantine forgery or an equivocating per-receiver
     unicast that differs anywhere from a cached frame can never
     collide with it — at worst it costs its own decode.
   - [digests]: proof bytes -> SHA-256 digest. The verify verdict is
     [Bytes.equal (H proof) vk.(signer, phase, slot)], a pure function
     of the proof bytes and the receiver's pre-distributed key, so
     memoizing H alone deduplicates the per-receiver hashing while
     making the cache unpoisonable by construction: no signer, phase or
     slot ever shares an entry it shouldn't.

   Only host wall-clock changes. Simulated time is untouched because
   [Net.Cost] CPU accounting still charges every receiver for its own
   decode and checks ([Turquois.on_datagram] counts auth checks in
   [Machine.handle], which is memo-oblivious).

   Both tables live in domain-local storage and are cleared at every
   run boundary ([Obs.Scope.at_run_start]): runs stay independent, pool
   workers never share state, and the hit/miss counters land in the
   same per-run metrics scope on every domain — preserving the
   bit-identical [-j 1] vs [-j N] contract. *)

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag

(* Delta-compressed justification bundles. A sender-side switch only:
   receivers always accept both wire formats, so flipping it never
   strands in-flight frames. *)
let compact_flag = Atomic.make true
let compact_enabled () = Atomic.get compact_flag

let with_flag flag value f =
  let previous = Atomic.get flag in
  Atomic.set flag value;
  Fun.protect ~finally:(fun () -> Atomic.set flag previous) f

let with_memo value f = with_flag enabled_flag value f
let with_compact value f = with_flag compact_flag value f

type caches = {
  decodes : (bytes, Message.wire) Hashtbl.t;
  digests : (bytes, bytes) Hashtbl.t;
  msg_digests : (Message.t, bytes) Hashtbl.t;
}

let caches_key : caches Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        decodes = Hashtbl.create 64;
        digests = Hashtbl.create 256;
        msg_digests = Hashtbl.create 256;
      })

let clear () =
  let c = Domain.DLS.get caches_key in
  Hashtbl.reset c.decodes;
  Hashtbl.reset c.digests;
  Hashtbl.reset c.msg_digests

let () = Obs.Scope.at_run_start clear

let decode_unprofiled payload =
  if not (enabled ()) then Message.decode_wire payload
  else begin
    let c = Domain.DLS.get caches_key in
    match Hashtbl.find_opt c.decodes payload with
    | Some wi ->
        Obs.Metrics.incr "codec.decode.memo_hit";
        wi
    | None ->
        (* malformed payloads raise out before reaching the table *)
        let wi = Message.decode_wire payload in
        Obs.Metrics.incr "codec.decode.memo_miss";
        (* key copied defensively: the table must never alias a buffer
           a caller could later mutate *)
        Hashtbl.add c.decodes (Bytes.copy payload) wi;
        wi
  end

(* profiled wrapper; a malformed payload raises out without a sample *)
let decode_wire payload =
  let sp = Obs.Prof.start () in
  let wi = decode_unprofiled payload in
  Obs.Prof.stop Obs.Prof.decode sp;
  wi

(* Content addresses for compact justification entries. The digest is a
   pure function of the message bytes, so the memo is unpoisonable for
   the same reason the proof-digest memo is; callers treat the returned
   buffer as immutable (it is shared between the table, [Ref] entries
   and the shipped/resolution sets). *)
let message_digest m =
  if not (enabled ()) then Message.msg_digest m
  else begin
    let c = Domain.DLS.get caches_key in
    match Hashtbl.find_opt c.msg_digests m with
    | Some d -> d
    | None ->
        let d = Message.msg_digest m in
        Hashtbl.add c.msg_digests m d;
        d
  end

let memo_digest proof =
  let c = Domain.DLS.get caches_key in
  match Hashtbl.find_opt c.digests proof with
  | Some digest ->
      Obs.Metrics.incr "crypto.verify.cache_hit";
      digest
  | None ->
      let digest = Crypto.Sha256.digest proof in
      Obs.Metrics.incr "crypto.verify.cache_miss";
      Hashtbl.add c.digests (Bytes.copy proof) digest;
      digest

let check_message keyring m =
  let sp = Obs.Prof.start () in
  let ok =
    if enabled () then Keyring.check_message_with ~hash:memo_digest keyring m
    else Keyring.check_message keyring m
  in
  Obs.Prof.stop Obs.Prof.verify sp;
  ok

let memo_series =
  [
    "codec.decode.memo_hit";
    "codec.decode.memo_miss";
    "crypto.verify.cache_hit";
    "crypto.verify.cache_miss";
  ]

let strip_metrics snapshot =
  List.filter
    (fun (s : Obs.Metrics.sample) -> not (List.mem s.Obs.Metrics.name memo_series))
    snapshot
