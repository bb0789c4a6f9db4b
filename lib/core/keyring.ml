type t = {
  kr_owner : int;
  kr_n : int;
  kr_phases : int;
  offset : int;  (* phase p of this view is phase offset+p of the keys *)
  secret : Crypto.Onetime_sig.secret;
  verifiers : Crypto.Onetime_sig.verifier array;
}

let setup rng ~n ~phases () =
  if n <= 0 then invalid_arg "Keyring.setup: n must be positive";
  let sp = Obs.Prof.start () in
  (* each owner draws its seed from [rng]: the application order must
     be pinned (ascending) *)
  let pairs = Util.Init.array n (fun owner -> Crypto.Onetime_sig.generate rng ~owner ~phases) in
  (* the verifier array is immutable after setup: all n rings share it *)
  let verifiers = Array.map snd pairs in
  let rings =
    Array.mapi
      (fun owner (secret, _) ->
        { kr_owner = owner; kr_n = n; kr_phases = phases; offset = 0; secret; verifiers })
      pairs
  in
  Obs.Prof.stop Obs.Prof.keyring_setup sp;
  rings

let owner t = t.kr_owner
let n t = t.kr_n
let phases t = t.kr_phases

let sign t ~phase ~value ~origin =
  Crypto.Onetime_sig.reveal t.secret ~phase:(t.offset + phase) (Message.slot_of ~value ~origin)

let check_with ~hash t ~signer ~phase ~value ~origin ~proof =
  signer >= 0 && signer < t.kr_n
  && phase >= 1 && phase <= t.kr_phases
  && Crypto.Onetime_sig.check_with ~hash t.verifiers.(signer) ~phase:(t.offset + phase)
       (Message.slot_of ~value ~origin) ~proof

let check t ~signer ~phase ~value ~origin ~proof =
  check_with ~hash:Crypto.Sha256.digest t ~signer ~phase ~value ~origin ~proof

let slice t ~offset ~phases =
  if offset < 0 || phases < 1 then invalid_arg "Keyring.slice: bad window";
  if t.offset + offset + phases > Crypto.Onetime_sig.secret_phases t.secret then
    invalid_arg "Keyring.slice: window exceeds the key horizon";
  { t with offset = t.offset + offset; kr_phases = phases }

let check_message_with ~hash t (m : Message.t) =
  check_with ~hash t ~signer:m.sender ~phase:m.phase ~value:m.value ~origin:m.origin
    ~proof:m.proof

let check_message t (m : Message.t) =
  check_message_with ~hash:Crypto.Sha256.digest t m
