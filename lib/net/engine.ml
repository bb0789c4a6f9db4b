type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable queued : bool;
}

type handle = event

(* A binary min-heap ordered by (time, seq) behind a little bookkeeping.

   [live] counts queued events that are not cancelled: cancellation
   only flags the event in O(1) (it is lazily collected when it
   reaches the front), so raw occupancy over-reports queue depth. *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable live : int;
  mutable live_peak : int;
  mutable queued_peak : int;
}

(* Fills unused heap slots and is [pop]'s result on an empty heap; it is
   never scheduled, so no handle can reach it. *)
let dummy =
  { time = 0.0; seq = -1; action = (fun () -> ()); cancelled = true; queued = false }

let create () =
  {
    heap = Array.make 256 dummy;
    size = 0;
    clock = 0.0;
    next_seq = 0;
    live = 0;
    live_peak = 0;
    queued_peak = 0;
  }

let now t = t.clock

let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Both sifts move a hole instead of swapping: [ev] is written once, at
   its final slot. (time, seq) is a strict total order, so the pop
   sequence is the same for any correct heap. *)
let sift_up heap i ev =
  let i = ref i in
  while !i > 0 && before ev heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    heap.(!i) <- heap.(parent);
    i := parent
  done;
  heap.(!i) <- ev

let sift_down heap size i ev =
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < size && before heap.(l + 1) heap.(l) then l + 1 else l in
    if c < size && before heap.(c) ev then begin
      heap.(!i) <- heap.(c);
      i := c
    end
    else continue := false
  done;
  heap.(!i) <- ev

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ev

(* Removes the earliest event; [dummy] when the heap is empty. *)
let pop t =
  if t.size = 0 then dummy
  else begin
    let heap = t.heap in
    let top = heap.(0) in
    let size = t.size - 1 in
    t.size <- size;
    let last = heap.(size) in
    heap.(size) <- dummy;
    if size > 0 then sift_down heap size 0 last;
    top.queued <- false;
    if not top.cancelled then t.live <- t.live - 1;
    top
  end

let at t ~time action =
  let time = Float.max time t.clock in
  let ev = { time; seq = t.next_seq; action; cancelled = false; queued = true } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  t.live <- t.live + 1;
  if t.live > t.live_peak then t.live_peak <- t.live;
  if t.size > t.queued_peak then t.queued_peak <- t.size;
  ev

let schedule t ~delay action =
  if Float.is_nan delay || delay < 0.0 then invalid_arg "Engine.schedule: bad delay";
  at t ~time:(t.clock +. delay) action

let cancel t handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    if handle.queued then t.live <- t.live - 1
  end

let pending t = t.live
let heap_size t = t.size
let live_peak t = t.live_peak
let queued_peak t = t.queued_peak

let step t =
  let sp = Obs.Prof.start () in
  let ev = pop t in
  Obs.Prof.stop Obs.Prof.engine_pop sp;
  if ev == dummy then false
  else begin
    if not ev.cancelled then begin
      t.clock <- ev.time;
      ev.action ()
    end;
    true
  end

let run ?(until = Float.infinity) ?(max_events = max_int) t =
  let executed = ref 0 in
  while !executed < max_events && t.size > 0 && not (t.heap.(0).time > until) do
    ignore (step t);
    incr executed
  done

let run_while t predicate =
  while t.size > 0 && predicate () do
    ignore (step t)
  done
