(** Frame interning: per-run, domain-local memoization of the receive
    hot path (decode + proof hashing).

    One broadcast reaches n receivers; without interning each of them
    re-decodes the identical payload and re-hashes the identical
    one-time-signature proofs. With it, the first receiver on a domain
    pays and the rest hit the memo — while {!Net.Cost} accounting still
    charges every receiver, so simulated results (decisions, latencies,
    phase counts, metrics other than the four memo counters) are
    bit-identical with the switch on or off. Caches key on exact bytes
    content, making them robust to Byzantine forgeries and equivocation
    by construction. They are cleared at every {!Obs.Scope.with_run}
    boundary via {!Obs.Scope.at_run_start}. *)

val enabled : unit -> bool
(** Whether the memo tables are in use (default on). *)

val with_memo : bool -> (unit -> 'a) -> 'a
(** Runs the thunk with memoization forced to the given value,
    restoring the previous setting afterwards (also on exceptions).
    Only the equivalence gate and the tests switch it off. Call it only
    between runs, from the coordinating domain. *)

val compact_enabled : unit -> bool
(** Sender-side switch for delta-compressed justification bundles
    (default on). Receivers accept both wire formats regardless, so
    flipping it never strands in-flight frames. *)

val with_compact : bool -> (unit -> 'a) -> 'a
(** Runs the thunk with the compact switch forced to the given value,
    restoring the previous setting afterwards (also on exceptions).
    Same callers and discipline as {!with_memo}. *)

val decode_wire : bytes -> Message.wire
(** {!Message.decode_wire} through the payload memo (verbatim fallback
    when disabled). Raises exactly what [Message.decode_wire] raises;
    malformed payloads are never cached. Emits
    [codec.decode.memo_hit]/[_miss] counters when enabled. *)

val message_digest : Message.t -> bytes
(** {!Message.msg_digest} through a per-run memo (verbatim fallback when
    disabled). Callers must treat the returned buffer as immutable. *)

val check_message : Keyring.t -> Message.t -> bool
(** {!Keyring.check_message} with proof hashing routed through the
    digest memo (verbatim fallback when disabled). Emits
    [crypto.verify.cache_hit]/[_miss] counters when enabled. *)

val clear : unit -> unit
(** Drops this domain's memo tables. Runs automatically at every run
    boundary; exposed for tests. *)

val memo_series : string list
(** The four instrumentation counter names above. *)

val strip_metrics : Obs.Metrics.snapshot -> Obs.Metrics.snapshot
(** Removes {!memo_series} from a snapshot — the projection under which
    memo-on and memo-off runs must produce equal metrics. *)
