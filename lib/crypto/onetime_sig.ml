type slot = S_zero | S_one | S_bot | S_rand_zero | S_rand_one

let slot_count = 5

let slot_index = function
  | S_zero -> 0
  | S_one -> 1
  | S_bot -> 2
  | S_rand_zero -> 3
  | S_rand_one -> 4

let slot_of_index = function
  | 0 -> S_zero
  | 1 -> S_one
  | 2 -> S_bot
  | 3 -> S_rand_zero
  | 4 -> S_rand_one
  | i -> raise (Util.Codec.Malformed (Printf.sprintf "invalid slot index %d" i))

let key_len = Sha256.digest_size

(* One phase's keys: SK(slot) at [slot_index slot], VK(slot) at
   [slot_count + slot_index slot], each [absent] until first needed. *)
type row = bytes array

let absent = Bytes.empty
let unfilled : row = [||]

(* The secret and the verifier of one owner share these keys, and both
   sides fill the same table on demand. Rows sit in chunks of [chunk]
   phases and are allocated on first use, so setting up a long horizon
   costs a few words per owner. Every filled entry is immutable bytes
   published by a single write: a reader on another domain sees either
   the sentinel, and derives the same bytes again, or the finished
   value. A decoded verifier has no seed and comes with every VK
   filled. *)
type keys = {
  k_owner : int;
  k_phases : int;
  seed : bytes;
  chunks : row array array;  (* phase p is chunks.((p-1)/chunk).((p-1) mod chunk) *)
}

type secret = keys
type verifier = keys

let chunk = 16
let no_chunk : row array = [||]
let chunk_count phases = (phases + chunk - 1) / chunk

(* Callers check [1 <= phase <= k_phases] first, so only in-horizon
   rows are ever allocated. A racing domain can at worst replace a
   fresh chunk or row and so drop entries, which are then derived
   again, identically. *)
let row k phase =
  let i = (phase - 1) / chunk and j = (phase - 1) mod chunk in
  let c = k.chunks.(i) in
  let c =
    if c != no_chunk then c
    else begin
      let c = Array.make chunk unfilled in
      k.chunks.(i) <- c;
      c
    end
  in
  let r = c.(j) in
  if r != unfilled then r
  else begin
    let r = Array.make (2 * slot_count) absent in
    c.(j) <- r;
    r
  end

(* SK(phase, slot) = H(seed || phase (u32 BE) || slot (u8)) — 37 bytes,
   one block of the SHA-256 fast path — and VK = H(SK), derived as a
   pair and returned as entry [idx] of the row *)
let entry k phase idx =
  let r = row k phase in
  let e = r.(idx) in
  if e != absent then e
  else begin
    let s = idx mod slot_count in
    let input = Bytes.create (key_len + 5) in
    Bytes.blit k.seed 0 input 0 key_len;
    Bytes.set_int32_be input key_len (Int32.of_int phase);
    Bytes.set_uint8 input (key_len + 4) s;
    let sk = Sha256.digest input in
    let vk = Sha256.digest sk in
    r.(s) <- sk;
    r.(slot_count + s) <- vk;
    if idx < slot_count then sk else vk
  end

let generate rng ~owner ~phases =
  if phases <= 0 then invalid_arg "Onetime_sig.generate: phases must be positive";
  let k =
    {
      k_owner = owner;
      k_phases = phases;
      seed = Util.Rng.bytes rng key_len;
      chunks = Array.make (chunk_count phases) no_chunk;
    }
  in
  (k, k)

let owner v = v.k_owner
let phases v = v.k_phases
let secret_phases s = s.k_phases

let reveal secret ~phase slot =
  if phase < 1 || phase > secret.k_phases then
    invalid_arg (Printf.sprintf "Onetime_sig.reveal: phase %d out of range" phase);
  entry secret phase (slot_index slot)

(* [hash] must be extensionally equal to [Sha256.digest]; the hot-path
   memo (Core.Intern) passes a per-run digest cache through here so a
   proof broadcast to n receivers is hashed once, not n times. The
   verdict is a pure function of the proof bytes, so a digest cache
   cannot be poisoned across signers, phases or slots. *)
let check_with ~hash verifier ~phase slot ~proof =
  phase >= 1 && phase <= verifier.k_phases
  && Bytes.length proof = key_len
  && Bytes.equal (hash proof) (entry verifier phase (slot_count + slot_index slot))

let check verifier ~phase slot ~proof =
  check_with ~hash:Sha256.digest verifier ~phase slot ~proof

let materialized_phases v =
  Array.fold_left
    (Array.fold_left (fun acc r -> if r != unfilled then acc + 1 else acc))
    0 v.chunks

let verifier_to_bytes v =
  let w = Util.Codec.W.create ~capacity:(16 + (v.k_phases * slot_count * key_len)) () in
  Util.Codec.W.u16 w v.k_owner;
  Util.Codec.W.u32 w v.k_phases;
  for phase = 1 to v.k_phases do
    for s = 0 to slot_count - 1 do
      Util.Codec.W.bytes w (entry v phase (slot_count + s))
    done
  done;
  Util.Codec.W.contents w

let verifier_of_bytes b =
  let r = Util.Codec.R.of_bytes b in
  let k_owner = Util.Codec.R.u16 r in
  let k_phases = Util.Codec.R.u32 r in
  if k_phases <= 0 || k_phases > 1_000_000 then
    raise (Util.Codec.Malformed "verifier: implausible phase count");
  (* the closures advance the reader: application order must be pinned *)
  let chunks =
    Util.Init.array (chunk_count k_phases) (fun i ->
        Util.Init.array chunk (fun j ->
            if (i * chunk) + j >= k_phases then unfilled
            else
              Util.Init.array (2 * slot_count) (fun s ->
                  if s < slot_count then absent else Util.Codec.R.bytes r key_len)))
  in
  Util.Codec.R.expect_end r;
  { k_owner; k_phases; seed = Bytes.empty; chunks }

let verifier_digest v = Sha256.digest (verifier_to_bytes v)
