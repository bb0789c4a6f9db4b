(** Key material for the authenticity validation of Section 6.1.

    A keyring holds one process's own one-time secret keys plus the
    verification-key arrays of every process. The paper generates and
    distributes these arrays "before the execution of the protocols",
    signed with each process's trapdoor function F (RSA) and checked on
    receipt. The simulator plays that out-of-band channel as a trusted
    dealer, so setup does no public-key work: it draws one seed per
    process and the keys are derived lazily
    ({!Crypto.Onetime_sig.generate}). The signed exchange itself is
    exercised once, by the crypto test suite, over
    {!Crypto.Onetime_sig.verifier_digest}. *)

type t

val setup : Util.Rng.t -> n:int -> phases:int -> unit -> t array
(** Trusted-dealer setup for all [n] processes at once: one-time key
    material for phases 1..[phases] (one 32-byte seed drawn from [rng]
    per process, in ascending order) and each process's keyring, all
    sharing one verifier array. Costs microseconds; each key is derived
    on its first use. *)

val owner : t -> int
val n : t -> int
val phases : t -> int

val sign : t -> phase:int -> value:Proto.value -> origin:Proto.origin -> bytes
(** The one-time signature this process attaches to a broadcast for
    [(phase, value, origin)].
    @raise Invalid_argument when [phase] exceeds the key horizon. *)

val check :
  t -> signer:int -> phase:int -> value:Proto.value -> origin:Proto.origin ->
  proof:bytes -> bool
(** Authenticity validation of a received message: one hash. Total —
    unknown signers and out-of-range phases return [false]. *)

val check_message : t -> Message.t -> bool
(** {!check} applied to a message's own fields. *)

val check_with :
  hash:(bytes -> bytes) -> t -> signer:int -> phase:int -> value:Proto.value ->
  origin:Proto.origin -> proof:bytes -> bool

val check_message_with : hash:(bytes -> bytes) -> t -> Message.t -> bool
(** {!check} / {!check_message} with the proof hash computed by [hash]
    (must be extensionally [Sha256.digest]); see
    {!Crypto.Onetime_sig.check_with}. [Intern.check_message] routes
    through this to share one digest per distinct broadcast proof. *)

val slice : t -> offset:int -> phases:int -> t
(** [slice t ~offset ~phases] is a view of the same key material whose
    phase [p] maps to the underlying phase [offset + p] — the paper's
    optimization of letting "a single key exchange span multiple
    instances of the k-consensus" (Section 6.1): instance i of an
    agreement sequence uses [slice t ~offset:(i * stride) ~phases:stride].
    @raise Invalid_argument when the window exceeds the key horizon. *)
