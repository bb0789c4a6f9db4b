(* In-memory span recorder for the traced pass. Spans wrap the
   benchmark's own calls into a layer's public functions (no span lives
   inside the library); each has a name, start and end on the monotonic
   clock, the span that encloses it and the operation it belongs to.
   Nothing is written until [write] runs at exit. *)

type t = {
  id : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
  parent : int;  (** -1 at top level *)
  op : int;  (** operation index, -1 outside operations *)
}

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)

(* [with_ name f] runs [f], inside a span when tracing is on, and
   returns its result with the elapsed seconds — measured either way,
   so traced and untraced passes read the same clock. *)
let with_ name f =
  if not !enabled then begin
    let t0 = now_ns () in
    let r = f () in
    (r, seconds_since t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = now_ns () in
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    let end_ns = now_ns () in
    spans := { id; name; start_ns; end_ns; parent; op = !current_op } :: !spans;
    (r, Int64.to_float (Int64.sub end_ns start_ns) *. 1e-9)
  end

let time name f = snd (with_ name f)
let recorded () = List.length !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"op\":%d}\n"
        s.id s.name s.start_ns s.end_ns s.parent s.op)
    (List.sort (fun a b -> Int.compare a.id b.id) !spans);
  close_out oc
