(* The four workloads. Each is a closed loop of operations drawn from
   a fixed list derived from the benchmark seed; an operation is one
   [Harness.Runner.run] or one ordered-log run, and a decision is one
   consensus instance decided by a correct process or one delivered
   log slot. *)

type op = {
  wall_s : float;  (** host wall of the entry-point call *)
  alloc_words : float;  (** words allocated by this domain during the call *)
  decisions : int;
  tried : int;  (** correct processes, or commands submitted *)
  missed : int;  (** liveness misses among [tried] *)
  latencies : float list;
      (** simulated seconds, one per correct process or command; one that
          never decided or was never delivered counts as waiting until the
          run ended, beyond every one that was *)
  frames : int;
  bytes : int;
  airtime : float;
  live_peak : int;  (** engine live-event high-water mark *)
  metrics : Obs.Metrics.snapshot;
  records : Gate.record list;  (** one per protocol run *)
}

type keys = Turquois_keys of Core.Keyring.t array | Abba_keys

type spec = {
  name : string;
  n : int;
  cycle : int;  (** operations per cycle of the list; windows end on a cycle *)
  sim_ops : int;  (** fixed prefix every simulated metric is computed over *)
  trace_ops : int;  (** operations in each pass of the traced run *)
  setup_reps : int;  (** cold set-up calls per batch *)
  setup_name : string;  (** the public setup function, as a span name *)
  setup : Util.Rng.t -> keys;  (** one cold call of it *)
  warm : int64 -> unit;  (** fills the entry point's key cache *)
  op : base:int64 -> int -> op;
  tail_p : float;  (** the wall percentile reported as [wall_ms_tail] *)
  turquois : (int * Core.Proto.config * int array) option;
      (** replayed Turquois traffic: key horizon, config, proposals *)
  unicast : bool;  (** the workload's frames are mostly unicast *)
  abba : bool;
}

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let op_seed ~base i = Util.Rng.derive ~base [ i ]

let consensus_op ~protocol ~n ~dist ~load ~timeout ~seed =
  let a0 = alloc_words () in
  let r, wall_s =
    Span.with_ "harness.runner.run" (fun () ->
        Harness.Runner.run ~protocol ~n ~dist ~load ~timeout ~seed ())
  in
  let alloc_words = alloc_words () -. a0 in
  let decisions = List.length r.decisions in
  let tried = List.length r.correct in
  {
    wall_s;
    alloc_words;
    decisions;
    tried;
    missed = tried - decisions;
    latencies = List.map snd r.latencies @ List.init (tried - decisions) (fun _ -> r.duration);
    frames = r.frames_sent;
    bytes = r.bytes_sent;
    airtime = r.airtime;
    live_peak = r.events_live_peak;
    metrics = r.metrics;
    records =
      [
        Gate.Consensus
          {
            proposals = Harness.Runner.proposals dist ~n;
            correct = r.correct;
            decisions = r.decisions;
          };
      ];
  }

(* two runs taken as one operation *)
let both a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    alloc_words = a.alloc_words +. b.alloc_words;
    decisions = a.decisions + b.decisions;
    tried = a.tried + b.tried;
    missed = a.missed + b.missed;
    latencies = a.latencies @ b.latencies;
    frames = a.frames + b.frames;
    bytes = a.bytes + b.bytes;
    airtime = a.airtime +. b.airtime;
    live_peak = max a.live_peak b.live_peak;
    metrics = Obs.Metrics.merge [ a.metrics; b.metrics ];
    records = a.records @ b.records;
  }

(* --- ordered-log service -------------------------------------------------- *)

type log_params = {
  log_n : int;
  capacity : int;
  commands : int;
  rate : float;  (** offered load, commands per simulated second *)
}

let log_max_phases = 45
let log_key_seed ~base = Util.Rng.derive ~base [ 0x7002 ]

let log_keyrings p ~base =
  Harness.Runner.keyrings_for ~seed:(log_key_seed ~base) ~n:p.log_n
    ~phases:(p.capacity * log_max_phases)

let encode_command id =
  let w = Util.Codec.W.create ~capacity:24 () in
  Util.Codec.W.varint w id;
  Util.Codec.W.bytes w (Bytes.make 16 '\xab');
  Util.Codec.W.contents w

(* One open-loop run of the log: commands arrive at due times generated
   from the operation seed, each timed from its due time to its delivery
   at the node that submitted it. Driven here, as
   [Harness.Workload] does, because the benchmark needs the radio
   statistics and every node's delivered sequence. *)
let log_body p ~keyrings ~seed () =
  let n = p.log_n in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.01;
  let cfg = { (Core.Proto.default_config ~n) with max_phases = log_max_phases } in
  let logs =
    Util.Init.array n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Ordered_log.create node cfg ~keyring:keyrings.(i) ~capacity:p.capacity
          ~window:1 ~max_batch:8 ~payload_wait:0.3 ~noop_wait:0.12
          ~help_retention:p.capacity ~retain_deliveries:false ())
  in
  (* a Poisson process at [rate] conditioned on all commands arriving
     within commands/rate seconds (sorted uniform times): an unconditioned
     tail can arrive after the last slot is proposed, and such a command
     could never be delivered whatever the protocol did *)
  let arrivals = Util.Rng.split rng in
  let horizon = float_of_int p.commands /. p.rate in
  let due = Util.Init.array p.commands (fun _ -> Util.Rng.float arrivals horizon) in
  Array.sort Float.compare due;
  let sequences = Array.make n [] in
  let latencies = ref [] in
  let delivered = Array.make p.commands false in
  Array.iteri
    (fun i log ->
      Core.Ordered_log.on_deliver log (fun ~slot ~payload ->
          match payload with
          | None -> sequences.(i) <- Printf.sprintf "%d:skip" slot :: sequences.(i)
          | Some batch ->
              sequences.(i) <-
                Printf.sprintf "%d:%s" slot (Util.Codec.hex (Core.Ordered_log.batch_digest batch))
                :: sequences.(i);
              List.iter
                (fun cmd ->
                  let id = Util.Codec.R.varint (Util.Codec.R.of_bytes cmd) in
                  if id >= 0 && id < p.commands then begin
                    if id mod n = i then
                      latencies := (Net.Engine.now engine -. due.(id)) :: !latencies;
                    if i = 0 then delivered.(id) <- true
                  end)
                (Core.Ordered_log.decode_batch batch)))
    logs;
  Array.iter Core.Ordered_log.start logs;
  Array.iteri
    (fun id time ->
      ignore
        (Net.Engine.at engine ~time (fun () ->
             Core.Ordered_log.submit logs.(id mod n) (encode_command id))))
    due;
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < 120.0
      && Array.exists (fun log -> Core.Ordered_log.delivered_count log < p.capacity) logs);
  let stats = Net.Radio.stats radio in
  let missed = ref 0 in
  Array.iteri
    (fun id d ->
      if not d then begin
        incr missed;
        latencies := (Net.Engine.now engine -. due.(id)) :: !latencies
      end)
    delivered;
  ( Core.Ordered_log.delivered_count logs.(0),
    !missed,
    List.rev !latencies,
    stats,
    Net.Engine.live_peak engine,
    Gate.Log { sequences = Array.map List.rev sequences } )

let log_op p ~base ~seed =
  let keyrings = log_keyrings p ~base in
  let a0 = alloc_words () in
  let ((decisions, missed, latencies, stats, live_peak, record), metrics), wall_s =
    Span.with_ "core.ordered_log.run" (fun () ->
        Obs.Scope.with_run (log_body p ~keyrings ~seed))
  in
  let alloc_words = alloc_words () -. a0 in
  {
    wall_s;
    alloc_words;
    decisions;
    tried = p.commands;
    missed;
    latencies;
    frames = stats.Net.Radio.frames_sent;
    bytes = stats.bytes_sent;
    airtime = stats.airtime;
    live_peak;
    metrics;
    records = [ record ];
  }

(* --- the workload table ---------------------------------------------------- *)

let turquois_keys ~n ~phases rng = Turquois_keys (Core.Keyring.setup rng ~n ~phases ())

(* Runner's key horizon for Turquois (its [key_phases]) *)
let runner_phases = 300

let turquois_spec ~name ~n ~cells ~timeout ~sim_ops ~trace_ops ~setup_reps ~tail_p =
  let cycle = Array.length cells in
  let load0, dist0 = cells.(0) in
  {
    name;
    n;
    cycle;
    sim_ops;
    trace_ops;
    setup_reps;
    setup_name = "core.keyring.setup";
    setup = turquois_keys ~n ~phases:runner_phases;
    warm =
      (fun base ->
        ignore
          (Harness.Runner.run ~protocol:Turquois ~n ~dist:dist0 ~load:load0 ~timeout
             ~seed:(Util.Rng.derive ~base [ 0xa4a ]) ()));
    op =
      (fun ~base i ->
        let load, dist = cells.(i mod cycle) in
        consensus_op ~protocol:Turquois ~n ~dist ~load ~timeout ~seed:(op_seed ~base i));
    tail_p;
    turquois =
      Some
        ( runner_phases,
          { (Core.Proto.default_config ~n) with max_phases = runner_phases },
          Harness.Runner.proposals dist0 ~n );
    unicast = false;
    abba = false;
  }

(* Five of the six Table 1-3 Turquois cells. The Byzantine-divergent
   cell is left out: under the attacker with divergent proposals and the
   default 5% loss, 0.8% to 6% of n=16 runs (by seed) stall for good with
   no correct process deciding, e.g. [Harness.Runner.run ~protocol:Turquois
   ~n:16 ~dist:Divergent ~load:Byzantine ~seed:(Util.Rng.derive ~base:77L
   [ 95 ])]. A workload must be one on which no operation fails, and such a
   run is a defect of the protocol's liveness, not a cost to time. *)
let table_cells =
  let open Net.Fault in
  [|
    (Failure_free, Harness.Runner.Unanimous);
    (Failure_free, Divergent);
    (Fail_stop, Unanimous);
    (Fail_stop, Divergent);
    (Byzantine, Unanimous);
  |]

let log_spec p ~sim_ops ~trace_ops =
  {
    name = "log-service";
    n = p.log_n;
    cycle = 1;
    sim_ops;
    trace_ops;
    setup_reps = 5;
    setup_name = "core.keyring.setup";
    setup = turquois_keys ~n:p.log_n ~phases:(p.capacity * log_max_phases);
    warm = (fun base -> ignore (log_op p ~base ~seed:(Util.Rng.derive ~base [ 0xa4a ])));
    op = (fun ~base i -> log_op p ~base ~seed:(op_seed ~base i));
    tail_p = 1.0;
    turquois =
      Some
        ( p.capacity * log_max_phases,
          { (Core.Proto.default_config ~n:p.log_n) with max_phases = log_max_phases },
          Array.make p.log_n 1 );
    unicast = false;
    abba = false;
  }

(* An operation is a Bracha run and an ABBA run on one seed, the two
   baseline columns of a table cell: taken apart, the window would hold
   a two-mode mix of runs whose median sits in the gap between them.
   Bracha runs unanimous: its local coins send a divergent run to one
   or two rounds (2.3 or 4.5 s of host time) at random, a mix the few
   operations of a window could not pin. ABBA's common coin makes its
   divergent runs take two rounds every time, so ABBA keeps the coin. *)
let baselines_spec ~n ~sim_ops ~trace_ops =
  let f = Net.Fault.max_f n in
  let pair seed =
    let run protocol dist =
      consensus_op ~protocol ~n ~dist ~load:Failure_free ~timeout:120.0 ~seed
    in
    let bracha = run Bracha Unanimous in
    both bracha (run Abba Divergent)
  in
  {
    name = "baselines-n16";
    n;
    cycle = 1;
    sim_ops;
    trace_ops;
    setup_reps = 3;
    setup_name = "baselines.abba.setup_keys";
    setup =
      (fun rng ->
        ignore (Baselines.Abba.setup_keys rng ~n ~f ());
        Abba_keys);
    warm = (fun base -> ignore (pair (Util.Rng.derive ~base [ 0xa4a ])));
    op = (fun ~base i -> pair (op_seed ~base i));
    tail_p = 1.0;
    turquois = None;
    unicast = true;
    abba = true;
  }

let names = [ "turquois-n16"; "turquois-n64"; "log-service"; "baselines-n16" ]

(* [tiny] shrinks every size for the benchmark's self-test: same code
   paths, a fraction of a second per operation. *)
let find ~tiny name =
  match name with
  | "turquois-n16" ->
      (* every run of these cells decides well within 2 s simulated *)
      let timeout = 2.0 in
      if tiny then
        turquois_spec ~name ~n:4 ~cells:table_cells ~timeout ~sim_ops:5 ~trace_ops:5
          ~setup_reps:3 ~tail_p:1.0
      else
        turquois_spec ~name ~n:16 ~cells:table_cells ~timeout ~sim_ops:600 ~trace_ops:120
          ~setup_reps:3 ~tail_p:0.98
  | "turquois-n64" ->
      (* unanimous: with divergent proposals the local coins send a run
         to a decision at phase 3, 6 or 9 (0.4, 2.1 or 3.7 s of host
         time), and the few runs a window holds could not pin the mix *)
      let cells = [| (Net.Fault.Failure_free, Harness.Runner.Unanimous) |] in
      let timeout = 5.0 in
      if tiny then
        turquois_spec ~name ~n:7 ~cells ~timeout ~sim_ops:1 ~trace_ops:1 ~setup_reps:3
          ~tail_p:1.0
      else
        turquois_spec ~name ~n:64 ~cells ~timeout ~sim_ops:12 ~trace_ops:4 ~setup_reps:2
          ~tail_p:1.0
  | "log-service" ->
      if tiny then
        log_spec { log_n = 4; capacity = 24; commands = 12; rate = 20.0 } ~sim_ops:1
          ~trace_ops:1
      else
        log_spec { log_n = 4; capacity = 72; commands = 120; rate = 20.0 } ~sim_ops:8
          ~trace_ops:4
  | "baselines-n16" ->
      if tiny then baselines_spec ~n:4 ~sim_ops:1 ~trace_ops:1
      else baselines_spec ~n:16 ~sim_ops:2 ~trace_ops:1
  | _ -> invalid_arg ("unknown workload " ^ name)
