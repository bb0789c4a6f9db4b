(* Scaling sweep past the paper's n=16: Turquois (all-to-all over the
   full radio/MAC stack, up to [turquois_cap]) against the sample-based
   consensus — over the same contended radio up to [radio_cap]
   ("Sampled-radio"), and over the scalable abstract medium at every n
   ("Sampled"). *)

type point = {
  protocol : string;
  n : int;
  honest : int;
  decided : int;
  mean_latency : float;
  max_latency : float;
  duration : float;
  msgs : int;
  bytes : int;
  airtime : float;
  live_peak : int;
  queued_peak : int;
  arena_hw : int;
  timed_out : bool;
  mem_words : int;
  minor_words : int;
  major_words : int;
}

let default_ns = [ 16; 64; 128; 256; 1024 ]

(* Words allocated by the current domain so far, split by generation
   (major is net of promotions, so the two add up to total allocation).
   [Gc.counters] reads the calling domain's own live counters.
   [Gc.quick_stat] would not do: it sums every domain's counters as of
   each domain's last collection, so its major component both lags (a
   point's delta can read 0 or even negative) and, under -j N, bills a
   point for its neighbours' direct-to-major allocations. Unlike
   [top_heap_words] (a process-global monotonic high-water mark) the
   delta across a point's body does not depend on which points ran
   earlier. *)
let gc_words () =
  let minor, promoted, major = Gc.counters () in
  (minor, major -. promoted)

(* One sampled-consensus execution: n correct nodes, divergent
   proposals, 1% iid loss, all randomness derived from [seed]. *)
let run_sampled ~n ~seed ~timeout =
  let body () =
    let minor0, major0 = gc_words () in
    let engine = Net.Engine.create () in
    let rng = Util.Rng.create ~seed in
    let medium =
      Scale.Medium.create engine (Util.Rng.split rng) ~n ~loss:0.01 ()
    in
    let net = Scale.Transport.of_medium medium in
    let sampler = Scale.Sampler.create ~seed:(Util.Rng.derive ~base:seed [ 1 ]) ~n in
    let coin_seed = Util.Rng.derive ~base:seed [ 2 ] in
    let cfg = Scale.Sampled.default_config ~n in
    let decide_time : (int, float) Hashtbl.t = Hashtbl.create n in
    let nodes =
      Util.Init.array n (fun id ->
          let p =
            Scale.Sampled.create net sampler cfg ~id ~coin_seed
              ~proposal:(id land 1) ()
          in
          Scale.Sampled.on_decide p (fun ~value:_ ~phase:_ ->
              Hashtbl.replace decide_time id (Net.Engine.now engine));
          p)
    in
    Array.iter Scale.Sampled.start nodes;
    Net.Engine.run_while engine (fun () ->
        Net.Engine.now engine < timeout && Hashtbl.length decide_time < n);
    let timed_out = Hashtbl.length decide_time < n in
    (* drain the linger/claim tail so traffic totals are complete *)
    Net.Engine.run ~until:timeout engine;
    let lats = Hashtbl.fold (fun _ l acc -> l :: acc) decide_time [] in
    let stats = Scale.Medium.stats medium in
    let minor1, major1 = gc_words () in
    {
      protocol = "Sampled";
      n;
      honest = n;
      decided = Hashtbl.length decide_time;
      mean_latency =
        (if lats = [] then 0.0
         else List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats));
      max_latency = List.fold_left Float.max 0.0 lats;
      duration = Net.Engine.now engine;
      msgs = stats.msgs_sent;
      bytes = stats.bytes_sent;
      airtime = stats.airtime;
      live_peak = Net.Engine.live_peak engine;
      queued_peak = Net.Engine.queued_peak engine;
      arena_hw = Scale.Medium.arena_high_water medium;
      timed_out;
      mem_words = int_of_float (minor1 +. major1 -. (minor0 +. major0));
      minor_words = int_of_float (minor1 -. minor0);
      major_words = int_of_float (major1 -. major0);
    }
  in
  fst (Obs.Scope.with_run body)

(* One Runner execution over the full radio/MAC stack, reduced to a
   sweep point. Shared by the Turquois and Sampled-radio task kinds. *)
let run_radio ~protocol_name ~runner_protocol ~n ~seed ~timeout =
  let minor0, major0 = gc_words () in
  let r =
    Runner.run ~protocol:runner_protocol ~n ~dist:Runner.Divergent
      ~load:Net.Fault.Failure_free ~timeout ~seed ()
  in
  let minor1, major1 = gc_words () in
  let lats = List.map snd r.Runner.latencies in
  {
    protocol = protocol_name;
    n;
    honest = List.length r.Runner.correct;
    decided = List.length lats;
    mean_latency =
      (if lats = [] then 0.0
       else List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats));
    max_latency = List.fold_left Float.max 0.0 lats;
    duration = r.Runner.duration;
    msgs = r.Runner.frames_sent;
    bytes = r.Runner.bytes_sent;
    airtime = r.Runner.airtime;
    live_peak = r.Runner.events_live_peak;
    queued_peak = r.Runner.events_queued_peak;
    (* for Turquois the arena is the per-run interned message store:
       its size is the count of distinct messages the whole group
       materialized (the flat V sets and justification bundles hold
       indices into it) *)
    arena_hw =
      (match runner_protocol with
      | Runner.Turquois -> Core.Msgstore.size (Core.Msgstore.current ())
      | _ -> 0);
    timed_out = r.Runner.timed_out;
    mem_words = int_of_float (minor1 +. major1 -. (minor0 +. major0));
    minor_words = int_of_float (minor1 -. minor0);
    major_words = int_of_float (major1 -. major0);
  }

let run_turquois ~n ~seed ~timeout =
  run_radio ~protocol_name:"Turquois" ~runner_protocol:Runner.Turquois ~n ~seed ~timeout

let run_sampled_radio ~n ~seed ~timeout =
  run_radio ~protocol_name:"Sampled-radio" ~runner_protocol:Runner.Sampled ~n ~seed
    ~timeout

let sweep ?jobs ?(ns = default_ns) ?(turquois_cap = 128) ?(radio_cap = 256)
    ?(timeout = 30.0) ~seed () =
  if ns = [] then invalid_arg "Scaling.sweep: need at least one n";
  let tasks =
    Array.of_list
      (List.concat_map
         (fun n ->
           (if n <= turquois_cap then [ ("Turquois", n) ] else [])
           @ (if n <= radio_cap then [ ("Sampled-radio", n) ] else [])
           @ [ ("Sampled", n) ])
         ns)
  in
  Pool.map ?jobs ~tasks:(Array.length tasks) (fun i ->
      let protocol, n = tasks.(i) in
      let seed = Util.Rng.derive ~base:seed [ i; n ] in
      match protocol with
      | "Turquois" -> run_turquois ~n ~seed ~timeout
      | "Sampled-radio" -> run_sampled_radio ~n ~seed ~timeout
      | _ -> run_sampled ~n ~seed ~timeout)
  |> Array.to_list

(* deterministic fields only: the table is diffed across -j values *)
let render points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-13s %5s %9s %10s %10s %9s %9s %11s %9s %9s %10s %8s %6s\n"
       "protocol" "n" "decided" "mean_ms" "max_ms" "dur_s" "msgs" "bytes"
       "airtime_s" "live_pk" "queued_pk" "arena" "t/o");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-13s %5d %4d/%-4d %10.2f %10.2f %9.3f %9d %11d %9.3f %9d %10d %8d %6s\n"
           p.protocol p.n p.decided p.honest (p.mean_latency *. 1e3)
           (p.max_latency *. 1e3) p.duration p.msgs p.bytes p.airtime p.live_peak
           p.queued_peak p.arena_hw
           (if p.timed_out then "yes" else "no")))
    points;
  Buffer.contents buf

(* Every field but the (protocol, n) key becomes a row; the record
   pattern names all of them, so adding a field to [point] does not
   compile until it is given a row here. *)
let rows points =
  List.concat_map
    (fun p ->
      let {
        protocol;
        n;
        honest;
        decided;
        mean_latency;
        max_latency;
        duration;
        msgs;
        bytes;
        airtime;
        live_peak;
        queued_peak;
        arena_hw;
        timed_out;
        mem_words;
        minor_words;
        major_words;
      } =
        p
      in
      let row rule key value =
        { Baseline.name = Printf.sprintf "%s/n=%d/%s" protocol n key; value; rule }
      in
      let exact key v = row Baseline.Exact key v in
      let count key i = exact key (float_of_int i) in
      let words key i = row Baseline.Max_growth key (float_of_int i) in
      [
        count "honest" honest;
        count "decided" decided;
        exact "mean_latency_s" mean_latency;
        exact "max_latency_s" max_latency;
        exact "duration_s" duration;
        count "msgs" msgs;
        count "bytes" bytes;
        exact "airtime_s" airtime;
        count "live_peak" live_peak;
        count "queued_peak" queued_peak;
        count "arena_hw" arena_hw;
        count "timed_out" (Bool.to_int timed_out);
        words "mem_words" mem_words;
        words "minor_words" minor_words;
        words "major_words" major_words;
      ])
    points
