(* Tests for the discrete-event engine and the CPU model. *)

let test_time_order () =
  let engine = Net.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Net.Engine.schedule engine ~delay:3.0 (note "c"));
  ignore (Net.Engine.schedule engine ~delay:1.0 (note "a"));
  ignore (Net.Engine.schedule engine ~delay:2.0 (note "b"));
  Net.Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "clock at last event" 3.0 (Net.Engine.now engine)

let test_tie_break_fifo () =
  let engine = Net.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Net.Engine.run engine;
  Alcotest.(check (list int)) "fifo ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_nested_scheduling () =
  let engine = Net.Engine.create () in
  let log = ref [] in
  ignore
    (Net.Engine.schedule engine ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Net.Engine.schedule engine ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Net.Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "time" 1.5 (Net.Engine.now engine)

let test_cancel () =
  let engine = Net.Engine.create () in
  let fired = ref false in
  let handle = Net.Engine.schedule engine ~delay:1.0 (fun () -> fired := true) in
  Net.Engine.cancel engine handle;
  Net.Engine.run engine;
  Alcotest.(check bool) "not fired" false !fired;
  (* double cancel is a no-op *)
  Net.Engine.cancel engine handle

let test_cancel_updates_pending () =
  (* the old pending counted cancelled events still sitting in the
     heap, so run_while loops driven by pending spun on dead work *)
  let engine = Net.Engine.create () in
  let h1 = Net.Engine.schedule engine ~delay:1.0 (fun () -> ()) in
  ignore (Net.Engine.schedule engine ~delay:2.0 (fun () -> ()));
  ignore (Net.Engine.schedule engine ~delay:3.0 (fun () -> ()));
  Alcotest.(check int) "three live" 3 (Net.Engine.pending engine);
  Net.Engine.cancel engine h1;
  Alcotest.(check int) "cancel drops pending" 2 (Net.Engine.pending engine);
  Alcotest.(check int) "corpse still heaped" 3 (Net.Engine.heap_size engine);
  (* double cancel must not decrement twice *)
  Net.Engine.cancel engine h1;
  Alcotest.(check int) "idempotent" 2 (Net.Engine.pending engine)

let test_cancelled_head_run_until () =
  (* a cancelled event at the head is discarded by the horizon sweep
     without firing and without perturbing the live count *)
  let engine = Net.Engine.create () in
  let fired = ref [] in
  let h1 = Net.Engine.schedule engine ~delay:1.0 (fun () -> fired := 1 :: !fired) in
  ignore (Net.Engine.schedule engine ~delay:2.0 (fun () -> fired := 2 :: !fired));
  ignore (Net.Engine.schedule engine ~delay:3.0 (fun () -> fired := 3 :: !fired));
  Net.Engine.cancel engine h1;
  Net.Engine.run engine ~until:1.5;
  Alcotest.(check (list int)) "cancelled head never fires" [] !fired;
  Alcotest.(check int) "two live after sweep" 2 (Net.Engine.pending engine);
  Alcotest.(check int) "corpse popped" 2 (Net.Engine.heap_size engine);
  Net.Engine.run engine;
  Alcotest.(check (list int)) "survivors fire" [ 2; 3 ] (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Net.Engine.pending engine)

let test_pending_after_fire () =
  let engine = Net.Engine.create () in
  for i = 1 to 4 do
    ignore (Net.Engine.schedule engine ~delay:(float_of_int i) (fun () -> ()))
  done;
  Net.Engine.run engine ~until:2.5;
  Alcotest.(check int) "fired events leave pending" 2 (Net.Engine.pending engine);
  Alcotest.(check int) "and the heap" 2 (Net.Engine.heap_size engine)

let test_run_until () =
  let engine = Net.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Net.Engine.schedule engine ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Net.Engine.run engine ~until:5.5;
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check int) "five pending" 5 (Net.Engine.pending engine);
  Net.Engine.run engine;
  Alcotest.(check int) "all fired" 10 !count

let test_run_while () =
  let engine = Net.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Net.Engine.schedule engine ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Net.Engine.run_while engine (fun () -> !count < 3);
  Alcotest.(check int) "stopped by predicate" 3 !count

let test_max_events () =
  let engine = Net.Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> incr count))
  done;
  Net.Engine.run engine ~max_events:4;
  Alcotest.(check int) "bounded" 4 !count

let test_at_in_past_clamped () =
  let engine = Net.Engine.create () in
  let when_fired = ref (-1.0) in
  ignore
    (Net.Engine.schedule engine ~delay:2.0 (fun () ->
         ignore
           (Net.Engine.at engine ~time:1.0 (fun () -> when_fired := Net.Engine.now engine))));
  Net.Engine.run engine;
  Alcotest.(check (float 1e-12)) "clamped to now" 2.0 !when_fired

let test_bad_delay_rejected () =
  let engine = Net.Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: bad delay") (fun () ->
      ignore (Net.Engine.schedule engine ~delay:(-1.0) (fun () -> ())))

let test_step () =
  let engine = Net.Engine.create () in
  Alcotest.(check bool) "empty" false (Net.Engine.step engine);
  ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "one" true (Net.Engine.step engine);
  Alcotest.(check bool) "drained" false (Net.Engine.step engine)

let test_heap_stress () =
  (* many events in random order must still fire in time order *)
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:123L in
  let last = ref (-1.0) in
  let violations = ref 0 in
  for _ = 1 to 5000 do
    let delay = Util.Rng.float rng 100.0 in
    ignore
      (Net.Engine.schedule engine ~delay (fun () ->
           if Net.Engine.now engine < !last then incr violations;
           last := Net.Engine.now engine))
  done;
  Net.Engine.run engine;
  Alcotest.(check int) "monotone" 0 !violations

(* The heap against a sorted-list model: random schedule / cancel /
   partial-run programs must fire the same events in the same order,
   with the same clock and live count after every step. Quantized
   delays force exact ties (FIFO by scheduling order); cancels hit
   queued, fired and already-cancelled events alike. *)
let qcheck_matches_sorted_model =
  let program ops =
    let engine = Net.Engine.create () in
    let fired = ref [] and handles = ref [] in
    (* the model: queued (time, seq) pairs, cancelled seqs, clock *)
    let queued = ref [] and cancelled = Hashtbl.create 16 in
    let clock = ref 0.0 and model_fired = ref [] in
    let model_run until =
      let rec go () =
        match List.sort compare !queued with
        | (time, seq) :: rest when time <= until ->
            queued := rest;
            if not (Hashtbl.mem cancelled seq) then begin
              clock := time;
              model_fired := seq :: !model_fired
            end;
            go ()
        | _ -> ()
      in
      go ()
    in
    let model_live () =
      List.length (List.filter (fun (_, seq) -> not (Hashtbl.mem cancelled seq)) !queued)
    in
    let steps =
      List.mapi
        (fun seq (op, a) ->
          (match op mod 4 with
          | 0 | 1 ->
              let delay = float_of_int (a mod 16) *. 0.25 in
              let h = Net.Engine.schedule engine ~delay (fun () -> fired := seq :: !fired) in
              handles := !handles @ [ (seq, h) ];
              queued := (!clock +. delay, seq) :: !queued
          | 2 when !handles <> [] ->
              let victim, h = List.nth !handles (a mod List.length !handles) in
              Net.Engine.cancel engine h;
              Hashtbl.replace cancelled victim ()
          | _ ->
              let horizon = float_of_int (a mod 8) *. 0.5 in
              Net.Engine.run ~until:(Net.Engine.now engine +. horizon) engine;
              model_run (!clock +. horizon));
          ( (Net.Engine.now engine, Net.Engine.pending engine),
            (!clock, model_live ()) ))
        ops
    in
    Net.Engine.run engine;
    model_run Float.infinity;
    List.for_all (fun (got, want) -> got = want) steps
    && List.rev !fired = List.rev !model_fired
    && Net.Engine.now engine = !clock
  in
  QCheck.Test.make ~count:200 ~name:"heap matches a sorted-list model"
    QCheck.(list_of_size Gen.(int_range 5 120) (pair small_nat small_nat))
    program

(* --- CPU ------------------------------------------------------------------ *)

let test_cpu_serializes_jobs () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  let log = ref [] in
  Net.Cpu.enqueue cpu (fun () ->
      Net.Cpu.charge cpu 0.010;
      log := ("job1", Net.Engine.now engine) :: !log);
  Net.Cpu.enqueue cpu (fun () -> log := ("job2", Net.Engine.now engine) :: !log);
  Net.Engine.run engine;
  match List.rev !log with
  | [ ("job1", t1); ("job2", t2) ] ->
      Alcotest.(check (float 1e-9)) "job1 at zero" 0.0 t1;
      Alcotest.(check (float 1e-9)) "job2 delayed by the charge" 0.010 t2
  | _ -> Alcotest.fail "wrong job order"

let test_cpu_charge_accumulates () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  let times = ref [] in
  for _ = 1 to 3 do
    Net.Cpu.enqueue cpu (fun () ->
        Net.Cpu.charge cpu 0.005;
        times := Net.Engine.now engine :: !times)
  done;
  Net.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "spaced by cost" [ 0.0; 0.005; 0.010 ] (List.rev !times)

let test_cpu_idle_runs_now () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  ignore
    (Net.Engine.schedule engine ~delay:1.0 (fun () ->
         Net.Cpu.enqueue cpu (fun () ->
             Alcotest.(check (float 1e-9)) "immediate" 1.0 (Net.Engine.now engine))));
  Net.Engine.run engine

let test_cpu_negative_charge_rejected () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  Alcotest.check_raises "negative" (Invalid_argument "Cpu.charge: negative cost") (fun () ->
      Net.Cpu.charge cpu (-1.0))

let suite =
  ( "engine",
    [
      Alcotest.test_case "time order" `Quick test_time_order;
      Alcotest.test_case "tie break fifo" `Quick test_tie_break_fifo;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "cancel updates pending" `Quick test_cancel_updates_pending;
      Alcotest.test_case "cancelled head swept" `Quick test_cancelled_head_run_until;
      Alcotest.test_case "pending after fire" `Quick test_pending_after_fire;
      Alcotest.test_case "run until" `Quick test_run_until;
      Alcotest.test_case "run while" `Quick test_run_while;
      Alcotest.test_case "max events" `Quick test_max_events;
      Alcotest.test_case "at in past" `Quick test_at_in_past_clamped;
      Alcotest.test_case "bad delay" `Quick test_bad_delay_rejected;
      Alcotest.test_case "step" `Quick test_step;
      Alcotest.test_case "heap stress" `Quick test_heap_stress;
      QCheck_alcotest.to_alcotest qcheck_matches_sorted_model;
      Alcotest.test_case "cpu serializes" `Quick test_cpu_serializes_jobs;
      Alcotest.test_case "cpu charge accumulates" `Quick test_cpu_charge_accumulates;
      Alcotest.test_case "cpu idle immediate" `Quick test_cpu_idle_runs_now;
      Alcotest.test_case "cpu negative charge" `Quick test_cpu_negative_charge_rejected;
    ] )
