(* perfbench: seeded open-loop workloads over the snode runtime.

   One invocation runs one sub-run of one workload and prints a single
   JSON object on stdout:

     perfbench.exe e2e --workload W --seed N --ops N
     perfbench.exe layers --workload W --seed N --ops N --traced-ops N
       [--spans FILE]

   [e2e] measures with tracing off: cluster set-up (build + preload), the
   measured phase, and the output checks. [layers] runs the workload
   untraced with a metrics registry for the per-layer counters, once more
   without a fault plan (the reliable layer's allocation cost), twice at
   a small size with and without causal tracing (the decomposition and
   the tracing overhead), and then the layer kernels. perfbench/run.py
   sizes the sub-runs, aggregates them and prints the benchmark result.

   Every call into the system goes through the public interfaces of
   [Dht_snode.Runtime] and the libraries under lib/. In [layers] mode
   each call the benchmark makes into a layer is wrapped in a host-time
   span (build, preload, each [Runtime.run ~until] window, anti-entropy,
   checks, kernels); the spans are written as JSONL to [--spans]. *)

module Runtime = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Fault = Dht_event_sim.Fault
module Rng = Dht_prng.Rng
module Zipf = Dht_workload.Keygen.Zipf
module Population = Dht_workload.Keygen.Population
module Vnode_id = Dht_core.Vnode_id
module Span = Dht_hashspace.Span
module Point_map = Dht_hashspace.Point_map
module Hash = Dht_hashes.Hash
module Merkle = Dht_merkle.Merkle
module Trace = Dht_telemetry.Trace
module Registry = Dht_telemetry.Registry
module Histogram = Dht_telemetry.Histogram
module History = Dht_check.History
module Linear = Dht_check.Linear
module Invariants = Dht_check.Invariants
module Causal = Dht_obsv.Causal

let host () = Sys.time ()
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Host-time spans                                                      *)

type hspan = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans_on = ref false
let spans : hspan list ref = ref []
let span_next = ref 1
let span_cur = ref 0

(* [span name f] runs [f ()] and, when spans are on, records its host
   interval under the innermost open span. *)
let span name f =
  if not !spans_on then f ()
  else begin
    let id = !span_next in
    incr span_next;
    let parent = !span_cur in
    span_cur := id;
    let t0 = host () in
    let finish () =
      spans := { id; parent; name; t0; t1 = host () } :: !spans;
      span_cur := parent
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type kind = Kv_point | Kv_scan | Churn

type spec = {
  kind : kind;
  snodes : int;
  vnodes : int;  (** vnodes built during set-up *)
  grow_to : int;  (** vnodes at the end of the measured phase *)
  departures : int;  (** vnode departures requested in the measured phase *)
  keys : int;  (** preloaded key population *)
  rate : float;  (** client ops per virtual second (Poisson arrivals) *)
  drop : float;  (** fault plan during the measured phase *)
  dup : float;
}

let spec_of_name = function
  | "kv-point" ->
      { kind = Kv_point; snodes = 16; vnodes = 64; grow_to = 64; departures = 0;
        keys = 20_000; rate = 20_000.; drop = 0.; dup = 0. }
  | "kv-scan" ->
      { kind = Kv_scan; snodes = 16; vnodes = 64; grow_to = 64; departures = 0;
        keys = 20_000; rate = 20_000.; drop = 0.; dup = 0. }
  | "churn" ->
      { kind = Churn; snodes = 64; vnodes = 64; grow_to = 256; departures = 4;
        keys = 2_500; rate = 20_000.; drop = 0.01; dup = 0.005 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* The runtime as its users run it: fault plan armed (so reliable
   delivery, adaptive RTO and the watchdogs are on), one-quantum linger
   batching, bounded route caches, rfactor 3 with R = W = 2, and the
   default anti-entropy threshold. The link is the one the routing
   layer's scaling sweep uses. *)
let link = Network.link ~base_latency:8e-4 ~byte_time:1e-8
let linger = link.Network.base_latency

(* The runtime's own randomness (backoff jitter, balancing plans) is
   configuration, fixed like a deployment's; the benchmark seed only
   generates the inputs: keys, arrivals, fault draws, crash and departure
   victims. *)
let system_seed = 2004

let make_runtime spec ~seed ?(armed = true) ?trace ?metrics () =
  let faults = if armed then Some (Fault.create ~seed ()) else None in
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ?faults ~link ~rto:5e-3 ~adaptive_rto:true ~rfactor:3 ~read_quorum:2
      ~write_quorum:2 ~linger ~route_cap:128 ~max_hops:32
      ?balance:(if spec.kind = Churn then Some Dht_balance.Policy.default else None)
      ?trace ~causal:(trace <> None) ?metrics ~snodes:spec.snodes ~seed:system_seed ()
  in
  assert (Network.quantum (Runtime.network rt) = linger);
  (rt, faults)

let vid spec i = Vnode_id.make ~snode:(i mod spec.snodes) ~vnode:(i / spec.snodes)

(* Paced growth with steward refreshes armed across the window — the way
   the routing layer's scaling sweep builds clusters. *)
let grow rt spec ~upto =
  let engine = Runtime.engine rt in
  let first = Runtime.vnode_count rt in
  let create_rate = Float.max 2000. (float_of_int spec.snodes /. 2.) in
  let c0 = Engine.now engine +. 0.001 in
  for i = first to upto - 1 do
    Engine.at engine
      ~time:(c0 +. (float_of_int (i - first) /. create_rate))
      (fun () -> Runtime.create_vnode rt ~id:(vid spec i) ())
  done;
  Runtime.arm_route_refresh rt ~interval:0.05
    ~until:(c0 +. (float_of_int (upto - first) /. create_rate) +. 0.25);
  Runtime.run rt

(* Every population key written once, chained one arrival at a time. *)
let preload rt spec keys ~acked =
  let engine = Runtime.engine rt in
  let n = Array.length keys in
  let t0 = Engine.now engine +. 0.001 in
  let step = 1. /. 50_000. in
  let rec go i () =
    Runtime.put rt ~via:(i mod spec.snodes)
      ~on_done:(fun () -> incr acked)
      ~key:keys.(i) ~value:("p" ^ string_of_int i) ();
    if i + 1 < n then Engine.at engine ~time:(t0 +. (float_of_int (i + 1) *. step)) (go (i + 1))
  in
  if n > 0 then Engine.at engine ~time:t0 (go 0);
  Runtime.run rt

(* ------------------------------------------------------------------ *)
(* The measured phase                                                   *)

let c_get = 0
let c_put = 1
let c_insert = 2
let c_scan = 3

(* Op [i] is fully described before the phase starts, so issuing it
   allocates only what the client call itself needs. *)
type plan = {
  due : float array;  (** virtual due time *)
  cls : int array;
  key : int array;  (** population index (gets and puts) *)
}

let make_plan spec ~seed ~n ~t0 =
  let rng = Rng.of_int ((seed * 7919) + 17) in
  let zipf = Zipf.create ~n:spec.keys ~s:0.99 in
  let due = Array.make n 0. and cls = Array.make n c_get and key = Array.make n 0 in
  let t = ref t0 in
  for i = 0 to n - 1 do
    t := !t +. Rng.exponential rng ~rate:spec.rate;
    due.(i) <- !t;
    let r = Rng.float rng in
    let c =
      match spec.kind with
      | Kv_point -> if r < 0.05 then c_put else c_get
      | Kv_scan -> if r < 0.40 then c_insert else if r < 0.95 then c_get else c_scan
      | Churn -> if r < 0.5 then c_put else c_get
    in
    cls.(i) <- c;
    key.(i) <- Zipf.sample zipf rng - 1
  done;
  { due; cls; key }

type result = {
  attempted : int;
  completed : int;
  failed : int;
  get_lat : float array;  (** virtual seconds, sorted *)
  put_lat : float array;
  scan_lat : float array;
  scan_cells : int;
  phase_host : float;  (** host seconds of the measured phase *)
  msgs : int;
  bytes : int;
  creations : int;
  departures : int;
  ae_rounds : int;
  ae_host : float;
  ae_bytes : int;
  checks : (string * string list) list;
  sigma : float;
  depth_sum : int;  (** engine queue depth summed over arrivals *)
}

let sorted_prefix a n =
  let s = Array.sub a 0 n in
  Array.sort compare s;
  s

let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let windows = 10

(* The scanned slice: one fixed dyadic 1/2048 of the hash space. *)
let scan_slice space ~seed =
  let slice = Span.make space ~level:11 ~index:((seed * 131) land 2047) in
  (Span.start space slice, Span.stop space slice)

(* Events the causal trace buffer accepts; past it they are counted as
   dropped. *)
let trace_limit = 600_000

(* Virtual seconds the measured phase runs past the last arrival, the
   virtual horizon of one anti-entropy round (a round that goes quiet
   earlier ends earlier), and the round limit. *)
let settle = 2.0
let ae_window = 10.0
let max_ae_rounds = 8

(* Run the measured phase of [spec] on a built, preloaded cluster and
   check its outputs at quiescence. *)
let measure rt spec ~seed ~keys ~faults ~hist ~n =
  let engine = Runtime.engine rt in
  let net = Runtime.network rt in
  let space = Runtime.space rt in
  let t0 = Engine.now engine +. 0.001 in
  let plan = make_plan spec ~seed ~n ~t0 in
  let t_end = plan.due.(n - 1) in
  let duration = t_end -. t0 in
  (* Output state, preallocated. *)
  let state = Bytes.make n '\000' (* 0 pending, 1 ok, 2 failed *) in
  let get_lat = Array.make n 0. and put_lat = Array.make n 0. in
  let scan_lat = Array.make n 0. in
  let ng = ref 0 and np = ref 0 and ns = ref 0 in
  let scan_cells = ref 0 in
  let bad_reads = ref [] and scan_findings = ref [] in
  let insert_key i = Printf.sprintf "n%d-%d" seed i in
  let key_of_op i = if plan.cls.(i) = c_insert then insert_key i else keys.(plan.key.(i)) in
  (* Values are unique, and name the write that produced them. *)
  let valid ~key v =
    String.length v > 1
    &&
    match int_of_string_opt (String.sub v 1 (String.length v - 1)) with
    | None -> false
    | Some j -> (
        match v.[0] with
        | 'p' -> j >= 0 && j < Array.length keys && String.equal keys.(j) key
        | 'w' ->
            j >= 0 && j < n
            && (plan.cls.(j) = c_put || plan.cls.(j) = c_insert)
            && String.equal (key_of_op j) key
        | _ -> false)
  in
  let bad fmt = Printf.ksprintf (fun s -> bad_reads := s :: !bad_reads) fmt in
  let lo, hi = scan_slice space ~seed in
  let in_slice k =
    let p = Hash.string space k in
    p >= lo && p < hi
  in
  let preloaded_in_slice =
    if spec.kind = Kv_scan then List.filter in_slice (Array.to_list keys) else []
  in
  let inserted_in_slice = ref [] (* (ack time, key) *) in
  let finish_scan i cells =
    let now = Engine.now engine in
    scan_lat.(!ns) <- now -. plan.due.(i);
    incr ns;
    Bytes.set state i '\001';
    scan_cells := !scan_cells + List.length cells;
    let seen = Hashtbl.create 64 in
    let finding fmt = Printf.ksprintf (fun f -> scan_findings := f :: !scan_findings) fmt in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace seen k ();
        if not (in_slice k) then finding "scan %d: %S outside the slice" i k;
        if not (valid ~key:k v) then finding "scan %d: %S -> %S was never written" i k v)
      cells;
    let missing k = if not (Hashtbl.mem seen k) then finding "scan %d: acked key %S missing" i k in
    List.iter missing preloaded_in_slice;
    List.iter (fun (at, k) -> if at < plan.due.(i) then missing k) !inserted_in_slice
  in
  let issue i =
    let via = i mod spec.snodes in
    let c = plan.cls.(i) in
    if c = c_scan then Runtime.range_get rt ~via ~lo ~hi (finish_scan i)
    else if c = c_get then begin
      let key = keys.(plan.key.(i)) in
      Runtime.get rt ~via ~key (fun v ->
          get_lat.(!ng) <- Engine.now engine -. plan.due.(i);
          incr ng;
          match v with
          | None ->
              (* Every key a get names was preloaded and acked: an empty
                 answer is a failed operation. *)
              Bytes.set state i '\002'
          | Some v ->
              Bytes.set state i '\001';
              if not (valid ~key v) then bad "get %d: %S -> %S was never written" i key v)
    end
    else begin
      let key = key_of_op i in
      Runtime.put rt ~via
        ~on_done:(fun () ->
          let now = Engine.now engine in
          put_lat.(!np) <- now -. plan.due.(i);
          incr np;
          Bytes.set state i '\001';
          if c = c_insert && in_slice key then inserted_in_slice := (now, key) :: !inserted_in_slice)
        ~key ~value:("w" ^ string_of_int i) ()
    end
  in
  let depth_sum = ref 0 in
  let rec arrive i () =
    depth_sum := !depth_sum + Engine.pending engine;
    issue i;
    if i + 1 < n then Engine.at engine ~time:plan.due.(i + 1) (arrive (i + 1))
  in
  Engine.at engine ~time:plan.due.(0) (arrive 0);
  (* Membership churn, the crash window, the balancer and the faults. *)
  let creations0 = Runtime.completed_creations rt in
  let departed = ref 0 in
  if spec.kind = Churn then begin
    let grows = spec.grow_to - spec.vnodes + spec.departures in
    let gap = duration /. float_of_int (grows + 1) in
    let rec create j () =
      Runtime.create_vnode rt ~id:(vid spec (spec.vnodes + j)) ();
      if j + 1 < grows then Engine.at engine ~time:(t0 +. (float_of_int (j + 2) *. gap)) (create (j + 1))
    in
    Engine.at engine ~time:(t0 +. gap) (create 0);
    let rng = Rng.of_int ((seed * 3571) + 5) in
    for d = 1 to spec.departures do
      let victim = vid spec (1 + Rng.int rng (spec.vnodes - 1)) in
      Engine.at engine
        ~time:(t0 +. (duration *. float_of_int d /. float_of_int (spec.departures + 1)))
        (fun () -> Runtime.remove_vnode rt ~id:victim (fun ok -> if ok then incr departed))
    done;
    let victim = 1 + Rng.int rng (spec.snodes - 1) in
    if faults <> None then begin
      Engine.at engine ~time:(t0 +. (duration *. 0.4)) (fun () -> Runtime.crash_snode rt victim);
      Engine.at engine ~time:(t0 +. (duration *. 0.6)) (fun () -> Runtime.restart_snode rt victim)
    end;
    Runtime.arm_balancer rt ~until:t_end;
    Runtime.arm_route_refresh rt ~interval:0.05 ~until:(t_end +. settle);
    Option.iter
      (fun f ->
        Fault.set_drop f spec.drop;
        Fault.set_duplicate f spec.dup;
        (* Faults cease with the client traffic, so anti-entropy can
           converge. *)
        Engine.at engine ~time:t_end (fun () ->
            Fault.set_drop f 0.;
            Fault.set_duplicate f 0.))
      faults
  end;
  let msgs0 = Network.messages net and bytes0 = Network.bytes_sent net in
  let h0 = host () in
  for w = 1 to windows do
    span "run.window" (fun () ->
        Runtime.run rt ~until:(t0 +. (duration *. float_of_int w /. float_of_int windows)))
  done;
  (* Every workload gets the same bounded settle window after its
     traffic: an operation still unsettled at its end is reported, not
     waited for (a routed creation can cycle on stale advice for tens of
     virtual seconds, which would make the phase length a lottery). *)
  span "run.settle" (fun () -> Runtime.run rt ~until:(t_end +. settle));
  let ae_rounds = ref 0 and ae_host = ref 0. and ae_bytes = ref 0 in
  let divergence = ref [] in
  if spec.kind = Churn then begin
    let b0 = Network.bytes_sent net and a0 = host () in
    let converged = ref false in
    while (not !converged) && !ae_rounds < max_ae_rounds do
      incr ae_rounds;
      span "anti_entropy" (fun () ->
          Runtime.anti_entropy rt;
          Runtime.run rt ~until:(Engine.now engine +. ae_window));
      (* Converged: replicas agree and every acked write has reached
         its owner (orphan cells travel home as routed syncs, which can
         lag the replica digests). *)
      divergence := Runtime.replica_divergence rt;
      converged :=
        !divergence = []
        && Linear.durability ~peek:(fun key -> Runtime.peek rt ~key) (History.entries hist) = []
    done;
    ae_host := host () -. a0;
    ae_bytes := Network.bytes_sent net - b0
  end;
  let phase_host = host () -. h0 in
  let msgs = Network.messages net - msgs0 and bytes = Network.bytes_sent net - bytes0 in
  (* Outputs, checked once the settle window and anti-entropy are over. *)
  let checks =
    span "checks" (fun () ->
        let entries = History.entries hist in
        let peek key = Runtime.peek rt ~key in
        let pending = Runtime.pending_operations rt in
        let unsettled =
          if pending = 0 then []
          else [ Printf.sprintf "%d operations unsettled at the end of the phase" pending ]
        in
        [ ("settled", unsettled);
          ("audit", (match Runtime.audit rt with Ok () -> [] | Error l -> l));
          ("invariants", Invariants.to_strings (Invariants.check_runtime rt));
          (* An acked write not yet at its owner while operations are
             still unsettled may be in flight (an orphan cell routed
             home); it is a lost write only at quiescence. *)
          ((if pending = 0 then "durability" else "durability_unsettled"),
           Linear.durability ~peek entries);
          ("read_your_writes", Linear.read_your_writes entries);
          ("read_validity", List.rev !bad_reads) ]
        @ (if spec.kind = Kv_scan then [ ("scan", List.rev !scan_findings) ] else [])
        @
        if spec.kind = Churn then
          [ ("merkle", Invariants.to_strings (Invariants.check_merkle rt));
            ("anti_entropy", !divergence) ]
        else [])
  in
  let completed = ref 0 and failed = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr completed else incr failed) state;
  {
    attempted = n;
    completed = !completed;
    failed = !failed;
    get_lat = sorted_prefix get_lat !ng;
    put_lat = sorted_prefix put_lat !np;
    scan_lat = sorted_prefix scan_lat !ns;
    scan_cells = !scan_cells;
    phase_host;
    msgs;
    bytes;
    creations = Runtime.completed_creations rt - creations0;
    departures = !departed;
    ae_rounds = !ae_rounds;
    ae_host = !ae_host;
    ae_bytes = !ae_bytes;
    checks;
    sigma = Runtime.sigma_qv rt;
    depth_sum = !depth_sum;
  }

(* ------------------------------------------------------------------ *)
(* One sub-run: set-up, then the measured phase                         *)

(* Every counter the layer pass reads, snapshotted after set-up and after
   the measured phase; a per-layer metric is the difference. *)
type counters = {
  dispatched : int;
  stats : Runtime.stats;
  over : Runtime.overload_stats;
  repl : Runtime.repl_stats;
  rcache : Runtime.route_cache_stats;
  hops : int array;
  retries : int;
  lb : Runtime.lb_stats;
  ae : Runtime.ae_stats;
  tags : (string * int * int) list;
  batches : int;
  parts : int;
  saved : int;
  trace_events : int;
  gc : Gc.stat;
}

let counters rt ~trace =
  let net = Runtime.network rt in
  {
    dispatched = Engine.dispatched (Runtime.engine rt);
    stats = Runtime.stats rt;
    over = Runtime.overload_stats rt;
    repl = Runtime.repl_stats rt;
    rcache = Runtime.route_cache_stats rt;
    hops = Runtime.route_hops rt;
    retries = Runtime.retries rt;
    lb = Runtime.lb_stats rt;
    ae = Runtime.ae_stats rt;
    tags = Network.per_tag net;
    batches = Network.batches net;
    parts = Network.batched_parts net;
    saved = Network.batch_bytes_saved net;
    trace_events = (match trace with Some tr -> Trace.events tr | None -> 0);
    gc = Gc.quick_stat ();
  }

type run = {
  rt : Runtime.t;
  keys : string array;
  build_s : float;
  preload_s : float;
  preload_unacked : int;
  build_bytes : int;  (** sent while building the cluster *)
  build_creations : int;
  before : counters;  (** after set-up *)
  after : counters;  (** after the measured phase *)
  res : result;
}

let sub_run (spec : spec) ~seed ~n ?armed ?trace ?metrics ?(keys = spec.keys) () =
  let spec = { spec with keys } in
  let rt, faults = make_runtime spec ~seed ?armed ?trace ?metrics () in
  let hist = History.create () in
  History.attach hist rt;
  let pop = Population.create ~salt:(Printf.sprintf "k%d" seed) ~size:spec.keys () in
  let keys = Array.init spec.keys (Population.nth pop) in
  let h0 = host () in
  span "build" (fun () -> grow rt spec ~upto:spec.vnodes);
  let h1 = host () in
  let build_bytes = Network.bytes_sent (Runtime.network rt) in
  let build_creations = Runtime.completed_creations rt in
  let acked = ref 0 in
  span "preload" (fun () -> preload rt spec keys ~acked);
  let h2 = host () in
  let before = counters rt ~trace in
  let res = measure rt spec ~seed ~keys ~faults ~hist ~n in
  let after = counters rt ~trace in
  {
    rt; keys; build_s = h1 -. h0; preload_s = h2 -. h1;
    preload_unacked = spec.keys - !acked;
    build_bytes; build_creations; before; after; res;
  }

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)

let json_float f =
  if not (Float.is_finite f) then "null"
  else Printf.sprintf "%.17g" f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

type value = F of float | I of int | S of string | L of value list | O of (string * value) list

let rec json = function
  | F f -> json_float f
  | I i -> string_of_int i
  | S s -> json_string s
  | L l -> "[" ^ String.concat "," (List.map json l) ^ "]"
  | O kv -> "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json v) kv) ^ "}"

let us x = x *. 1e6

let checks_json r ~preload_unacked =
  let preload =
    if preload_unacked = 0 then []
    else [ Printf.sprintf "%d preload puts unacked" preload_unacked ]
  in
  let checks = ("preload", preload) :: r.checks in
  O
    (List.map
       (fun (name, findings) ->
         (name, O [ ("findings", I (List.length findings));
                    ("samples", L (List.map (fun s -> S s) (List.filteri (fun i _ -> i < 3) findings))) ]))
       checks)

(* ------------------------------------------------------------------ *)
(* e2e mode                                                             *)

(* A fixed stdlib-only kernel (string hashing, hashtable churn, list
   sorting: the allocation mix of the runtime's hot path, none of its
   code). Timed in the same process around the measured phase, it tracks
   how fast this host is running right now, so run.py can normalize host
   throughput by it. *)
let reference_s () =
  let t0 = host () in
  let h = Hashtbl.create 16 in
  for i = 0 to 99_999 do
    Hashtbl.replace h (string_of_int (i * 7)) (Array.make 4 i)
  done;
  let acc = ref 0 in
  for i = 0 to 199_999 do
    match Hashtbl.find_opt h (string_of_int i) with Some a -> acc := !acc + a.(0) | None -> ()
  done;
  ignore (Sys.opaque_identity (List.sort compare (List.init 50_000 (fun i -> (i * 7919) land 65535))));
  ignore (Sys.opaque_identity !acc);
  host () -. t0

let e2e spec ~seed ~n =
  let ref_before = reference_s () in
  let r = sub_run spec ~seed ~n () in
  let ref_after = reference_s () in
  let res = r.res in
  O
    [ ("attempted", I res.attempted);
      ("failed", I res.failed);
      ("checks", checks_json res ~preload_unacked:r.preload_unacked);
      ("setup_s", F (r.build_s +. r.preload_s));
      ("ops_per_host_s", F (float_of_int res.completed /. res.phase_host));
      ("heap_peak_mb", F (float_of_int (r.after.gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6));
      ("get_p50_vus", F (us (pct res.get_lat 0.50)));
      ("get_p99_vus", F (us (pct res.get_lat 0.99)));
      ("put_p50_vus", F (us (pct res.put_lat 0.50)));
      ("put_p99_vus", F (us (pct res.put_lat 0.99)));
      ("scan_p50_vus", F (us (pct res.scan_lat 0.50)));
      ("scan_p99_vus", F (us (pct res.scan_lat 0.99)));
      ("msgs", I res.msgs);
      ("bytes", I res.bytes);
      ("sigma_qv_pct", F res.sigma);
      ("creations", I res.creations);
      ("departures", I res.departures);
      ("ae_rounds", I res.ae_rounds);
      ("ref_before_s", F ref_before);
      ("ref_after_s", F ref_after) ]

(* ------------------------------------------------------------------ *)
(* Layer kernels                                                        *)

(* Each kernel replays inputs taken from the workload through one
   layer's public calls and returns host nanoseconds per call. *)

let timed_ns ~calls f =
  let t0 = host () in
  f ();
  (host () -. t0) *. 1e9 /. float_of_int calls

(* [Engine]: schedule-and-dispatch at the workload's mean queue depth —
   every dispatched event schedules its successor, so the depth holds. *)
let engine_kernel ~depth ~calls =
  let e = Engine.create () in
  let rng = Rng.of_int 7 in
  let delays = Array.init 4096 (fun _ -> Rng.exponential rng ~rate:1000.) in
  let k = ref 0 in
  let rec ev () =
    incr k;
    Engine.schedule e ~delay:delays.(!k land 4095) ev
  in
  for i = 1 to max 1 depth do
    Engine.schedule e ~delay:delays.(i land 4095) ev
  done;
  timed_ns ~calls (fun () -> Engine.run e ~max_events:calls)

(* [Network.send] under the workload's fault rates, replaying its
   per-tag message mix at each tag's mean size; deliveries are
   dispatched as they fall due. *)
let network_kernel spec ~seed ~mix ~calls =
  let e = Engine.create () in
  let faults = Fault.create ~drop:spec.drop ~duplicate:spec.dup ~seed () in
  let net = Network.create ~faults e link in
  let rng = Rng.of_int (seed + 11) in
  let total = List.fold_left (fun a (_, m, _) -> a + m) 0 mix in
  let table =
    if total = 0 then [| ("none", 64) |]
    else
      Array.init 4096 (fun _ ->
          let r = Rng.int rng total in
          let rec pick acc = function
            | [ (tag, m, b) ] -> (tag, if m = 0 then 64 else b / m)
            | (tag, m, b) :: rest -> if r < acc + m then (tag, b / m) else pick (acc + m) rest
            | [] -> ("none", 64)
          in
          pick 0 mix)
  in
  let src = Array.init 4096 (fun _ -> Rng.int rng spec.snodes) in
  let dst = Array.mapi (fun i s -> (s + 1 + (i mod (spec.snodes - 1))) mod spec.snodes) src in
  let noop () = () in
  timed_ns ~calls (fun () ->
      for i = 0 to calls - 1 do
        let j = i land 4095 in
        let tag, bytes = table.(j) in
        Network.send net ~tag ~src:src.(j) ~dst:dst.(j) ~bytes noop;
        if j = 4095 then Engine.run e
      done;
      Engine.run e)

(* Key to owner: [Hash.string] then [Point_map.find_point] over the
   cluster's partitions as they stand at the end of the workload. *)
let lookup_kernel rt ~keys ~calls =
  let space = Runtime.space rt in
  let pm = Point_map.create space in
  List.iter
    (fun (s : Runtime.View.snode_view) ->
      List.iter
        (fun (v : Runtime.View.vnode_view) ->
          List.iter (fun sp -> Point_map.add pm sp v.Runtime.View.vid) v.Runtime.View.spans)
        s.Runtime.View.vnodes)
    (Runtime.view rt).Runtime.View.snodes;
  let nk = Array.length keys in
  timed_ns ~calls (fun () ->
      for i = 0 to calls - 1 do
        ignore (Sys.opaque_identity (Point_map.find_point pm (Hash.string space keys.(i mod nk))))
      done)

(* [Merkle.insert] of the workload's keys into fresh full-space trees,
   then [frame_at] over dyadic spans. *)
let merkle_kernels rt ~keys ~calls =
  let space = Runtime.space rt in
  let nk = Array.length keys in
  let points = Array.map (Hash.string space) keys in
  let digests = Array.map Hashtbl.hash keys in
  let tree = ref (Merkle.create ~space ~span:Span.root ()) in
  let insert_ns =
    timed_ns ~calls (fun () ->
        for i = 0 to calls - 1 do
          let j = i mod nk in
          if j = 0 && i > 0 then tree := Merkle.create ~space ~span:Span.root ();
          Merkle.insert !tree ~key:keys.(j) ~point:points.(j) ~digest:digests.(j) ()
        done)
  in
  let frames = Array.init 4096 (fun i -> Span.of_point space ~level:(4 + (i mod 10)) points.(i mod nk)) in
  let frame_ns =
    timed_ns ~calls (fun () ->
        for i = 0 to calls - 1 do
          ignore (Sys.opaque_identity (Merkle.frame_at !tree frames.(i land 4095)))
        done)
  in
  (insert_ns, frame_ns)

(* Range reads on the quiescent cluster over the workload's slice. *)
let scan_kernel rt ~seed ~scans =
  let lo, hi = scan_slice (Runtime.space rt) ~seed in
  let snodes = Runtime.snode_count rt in
  let t0 = host () in
  for i = 0 to scans - 1 do
    Runtime.range_get rt ~via:(i mod snodes) ~lo ~hi ignore;
    Runtime.run rt
  done;
  (host () -. t0) *. 1e6 /. float_of_int scans

(* ------------------------------------------------------------------ *)
(* layers mode                                                          *)

let wire_classes = [ "data"; "repl"; "ack"; "batch"; "2pc"; "route_lb"; "ae"; "other" ]

let wire_class tag =
  let t =
    if String.starts_with ~prefix:"req:" tag then String.sub tag 4 (String.length tag - 4)
    else tag
  in
  let pre p = String.starts_with ~prefix:p t in
  match t with
  | "batch" -> "batch"
  | "ack" -> "ack"
  | "routed:put" | "routed:get" | "put-ack" | "get-reply" | "busy" | "range:get" | "range:reply" -> "data"
  | "repl:digest" | "repl:sync-request" | "repl:sync" | "ae-request" | "routed:sync" -> "ae"
  | _ when pre "mt:" -> "ae"
  | _ when pre "repl:" -> "repl"
  | _ when pre "lb:" -> "route_lb"
  | "routed:create" | "create-at-group" | "prepare" | "prepare-ack" | "transfer" | "all-received"
  | "commit" | "create-done" | "remove-request" | "remove-at-group" | "remove-prepare"
  | "remove-done" | "lpdr-pull" | "lpdr-push" -> "2pc"
  | _ -> "other"

(* Per-tag traffic of the measured phase: the end state minus the
   snapshot taken after set-up. *)
let tag_delta before after =
  List.map
    (fun (tag, m, b) ->
      match List.find_opt (fun (t, _, _) -> t = tag) before with
      | Some (_, m0, b0) -> (tag, m - m0, b - b0)
      | None -> (tag, m, b))
    after
  |> List.filter (fun (_, m, _) -> m > 0)

let hop_quantile hist q =
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0.
  else begin
    let target = q *. float_of_int total in
    let acc = ref 0 and found = ref (-1) in
    Array.iteri
      (fun h c ->
        acc := !acc + c;
        if !found < 0 && float_of_int !acc >= target then found := h)
      hist;
    float_of_int !found
  end

let hist_q reg ?labels name q =
  match Registry.merged reg ?labels name with
  | Some h when Histogram.count h > 0 -> Histogram.quantile h q
  | _ -> 0.

(* Self time of every span: its duration minus its children's. *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let c = Option.value ~default:0. (Hashtbl.find_opt children sp.parent) in
      Hashtbl.replace children sp.parent (c +. sp.t1 -. sp.t0))
    !spans;
  List.rev_map
    (fun sp ->
      (sp, sp.t1 -. sp.t0 -. Option.value ~default:0. (Hashtbl.find_opt children sp.id)))
    !spans

let write_spans file rows =
  let oc = open_out file in
  List.iter
    (fun (sp, self) ->
      output_string oc
        (json
           (O [ ("id", I sp.id); ("parent", I sp.parent); ("name", S sp.name);
                ("start_s", F sp.t0); ("dur_s", F (sp.t1 -. sp.t0)); ("self_s", F self) ]));
      output_char oc '\n')
    rows;
  close_out oc

let layers spec ~seed ~n ~small ~spans_file =
  spans_on := true;
  let m = ref [] in
  let put name v = m := (name, F v) :: !m in
  (* 1. The workload untraced, with a metrics registry. *)
  let reg = Registry.create () in
  let r = span "pass.untraced" (fun () -> sub_run spec ~seed ~n ~metrics:reg ()) in
  let res = r.res and rt = r.rt and b = r.before and a = r.after in
  let ops = res.attempted in
  let per_op x = float_of_int x /. float_of_int ops in
  let count x = float_of_int x in
  let depth = res.depth_sum / ops in
  put "engine.events_per_op" (per_op (a.dispatched - b.dispatched));
  put "engine.queue_peak" (count (Engine.max_pending (Runtime.engine rt)));
  put "engine.queue_mean" (count depth);
  let tags = tag_delta b.tags a.tags in
  List.iter
    (fun cls ->
      let sel = List.filter (fun (t, _, _) -> wire_class t = cls) tags in
      put ("wire.msgs_per_op." ^ cls) (per_op (List.fold_left (fun acc (_, x, _) -> acc + x) 0 sel));
      put ("wire.bytes_per_op." ^ cls) (per_op (List.fold_left (fun acc (_, _, x) -> acc + x) 0 sel)))
    wire_classes;
  put "batch.occupancy" (ratio (a.parts - b.parts) (a.batches - b.batches));
  put "batch.saved_bytes_per_op" (per_op (a.saved - b.saved));
  put "fault.drops_per_op" (per_op (a.stats.Runtime.drops - b.stats.Runtime.drops));
  put "fault.dups_per_op" (per_op (a.stats.Runtime.duplicates - b.stats.Runtime.duplicates));
  let rel = a.over.Runtime.reliable_messages - b.over.Runtime.reliable_messages in
  let retx = a.stats.Runtime.retransmits - b.stats.Runtime.retransmits in
  put "rel.reliable_msgs_per_op" (per_op rel);
  put "rel.retransmits_per_op" (per_op retx);
  put "rel.first_try_pct" (100. *. ratio rel (rel + retx));
  put "rel.timeouts" (count (a.stats.Runtime.timeouts - b.stats.Runtime.timeouts));
  let hops = Array.mapi (fun i c -> c - b.hops.(i)) a.hops in
  let hits = a.rcache.Runtime.rcs_hits - b.rcache.Runtime.rcs_hits in
  let misses = a.rcache.Runtime.rcs_misses - b.rcache.Runtime.rcs_misses in
  put "route.hops_p50" (hop_quantile hops 0.50);
  put "route.hops_p99" (hop_quantile hops 0.99);
  put "route.cache_hit_pct" (100. *. ratio hits (hits + misses));
  put "route.evictions_per_op"
    (per_op (a.rcache.Runtime.rcs_evictions - b.rcache.Runtime.rcs_evictions));
  put "route.retries_per_op" (per_op (a.retries - b.retries));
  put "repl.read_repairs_per_op" (per_op (a.repl.Runtime.read_repairs - b.repl.Runtime.read_repairs));
  put "repl.hints_stored" (count (a.repl.Runtime.hints_stored - b.repl.Runtime.hints_stored));
  put "repl.hints_flushed" (count (a.repl.Runtime.hints_flushed - b.repl.Runtime.hints_flushed));
  put "member.creations" (count res.creations);
  put "member.host_ms_per_create" (1e3 *. r.build_s /. count (max 1 r.build_creations));
  put "member.transfer_bytes_per_create" (ratio r.build_bytes (max 1 r.build_creations));
  let create = [ ("kind", "create") ] in
  put "member.create_p50_vms" (1e3 *. hist_q reg ~labels:create "runtime.2pc.event" 0.50);
  put "member.create_p90_vms" (1e3 *. hist_q reg ~labels:create "runtime.2pc.event" 0.90);
  put "2pc.prepare_p90_vms" (1e3 *. hist_q reg "runtime.2pc.prepare" 0.90);
  put "scan.p50_vus" (us (pct res.scan_lat 0.50));
  put "scan.p99_vus" (us (pct res.scan_lat 0.99));
  put "scan.cells_per_scan" (ratio res.scan_cells (Array.length res.scan_lat));
  put "ae.host_s" res.ae_host;
  put "ae.rounds" (count res.ae_rounds);
  put "ae.digests" (count (a.ae.Runtime.ae_digests - b.ae.Runtime.ae_digests));
  put "ae.roots" (count (a.ae.Runtime.ae_roots - b.ae.Runtime.ae_roots));
  put "ae.frames" (count (a.ae.Runtime.ae_frames - b.ae.Runtime.ae_frames));
  put "ae.keys_sent" (count (a.ae.Runtime.ae_keys_sent - b.ae.Runtime.ae_keys_sent));
  put "ae.bytes" (count res.ae_bytes);
  put "lb.swaps" (count (a.lb.Runtime.lbs_transfers - b.lb.Runtime.lbs_transfers));
  put "lb.msgs_per_op" (per_op (a.lb.Runtime.lbs_reports - b.lb.Runtime.lbs_reports));
  let minor_per_op (r : run) =
    (r.after.gc.Gc.minor_words -. r.before.gc.Gc.minor_words) /. float_of_int r.res.attempted
  in
  put "gc.minor_words_per_op" (minor_per_op r);
  put "gc.major_words_per_op" ((a.gc.Gc.major_words -. b.gc.Gc.major_words) /. count ops);
  put "gc.major_collections_per_kop"
    (1e3 *. count (a.gc.Gc.major_collections - b.gc.Gc.major_collections) /. count ops);
  put "phase.build_s" r.build_s;
  put "phase.preload_s" r.preload_s;
  (* 2. Kernels over this workload's inputs. *)
  put "engine.ns_per_event" (span "kernel.engine" (fun () -> engine_kernel ~depth ~calls:2_000_000));
  put "net.ns_per_send"
    (span "kernel.network" (fun () -> network_kernel spec ~seed ~mix:tags ~calls:500_000));
  put "route.lookup_ns"
    (span "kernel.lookup" (fun () -> lookup_kernel rt ~keys:r.keys ~calls:1_000_000));
  let insert_ns, frame_ns =
    span "kernel.merkle" (fun () -> merkle_kernels rt ~keys:r.keys ~calls:200_000)
  in
  put "merkle.insert_ns" insert_ns;
  put "merkle.frame_ns" frame_ns;
  put "scan.host_us_per_scan" (span "kernel.scan" (fun () -> scan_kernel rt ~seed ~scans:200));
  (* 3. The reliable layer's allocation: the same ops without a fault
     plan (no reliable delivery, no crash window). *)
  let bare = span "pass.no_faults" (fun () -> sub_run spec ~seed ~n ~armed:false ()) in
  put "rel.words_per_op" (minor_per_op r -. minor_per_op bare);
  (* 4. Tracing: a small pass untraced, then the same pass with causal
     tracing into a bounded buffer. *)
  let keys = min spec.keys small in
  let plain = span "pass.small_untraced" (fun () -> sub_run spec ~seed ~n:small ~keys ()) in
  let buf = Buffer.create (1 lsl 20) in
  let tr = Trace.to_buffer ~limit:trace_limit Trace.Jsonl buf in
  let traced = span "pass.small_traced" (fun () -> sub_run spec ~seed ~n:small ~keys ~trace:tr ()) in
  Trace.close tr;
  put "trace.host_overhead_pct"
    (100. *. (traced.res.phase_host -. plain.res.phase_host) /. plain.res.phase_host);
  put "trace.events_per_op"
    (count (traced.after.trace_events - traced.before.trace_events) /. count small);
  put "trace.dropped" (count (Trace.dropped tr));
  let a0 = host () in
  let analysis =
    span "causal.analyze" (fun () ->
        Causal.analyze (Causal.of_lines (String.split_on_char '\n' (Buffer.contents buf))))
  in
  put "causal.analyze_s" (host () -. a0);
  List.iter
    (fun (c : Causal.component_summary) ->
      if c.Causal.c_name <> "total" then begin
        put (Printf.sprintf "causal.%s_p50_vus" c.Causal.c_name) (us c.Causal.c_p50);
        put (Printf.sprintf "causal.%s_p99_vus" c.Causal.c_name) (us c.Causal.c_p99);
        put (Printf.sprintf "causal.%s_share_pct" c.Causal.c_name) c.Causal.c_share
      end)
    (Causal.summarize analysis);
  let mismatches = Causal.sum_mismatches analysis in
  put "causal.sum_mismatches" (count (List.length mismatches));
  put "causal.ops" (count (List.length analysis.Causal.complete));
  let rows = self_times () in
  Option.iter (fun file -> write_spans file rows) spans_file;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (sp, self) ->
      let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt by_name sp.name) in
      Hashtbl.replace by_name sp.name (c + 1, t +. self))
    rows;
  let span_rows =
    Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) by_name []
    |> List.sort (fun (_, _, x) (_, _, y) -> compare y x)
  in
  O
    [ ("checks", checks_json res ~preload_unacked:r.preload_unacked);
      ("attempted", I ops);
      ("failed", I res.failed);
      ("metrics", O (List.rev !m));
      ("mismatches", L (List.map (fun s -> S s) (List.filteri (fun i _ -> i < 5) mismatches)));
      ("spans",
        L (List.map (fun (name, c, t) -> O [ ("name", S name); ("count", I c); ("self_s", F t) ])
             span_rows)) ]

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let () =
  let args = Array.to_list Sys.argv in
  let mode = match args with _ :: m :: _ -> m | _ -> "" in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name = match opt name args with Some v -> v | None -> failwith ("missing " ^ name) in
  let spec = spec_of_name (get "--workload") in
  let seed = int_of_string (get "--seed") in
  let n = int_of_string (get "--ops") in
  if n < 1 then invalid_arg "--ops must be positive";
  let out =
    match mode with
    | "e2e" -> e2e spec ~seed ~n
    | "layers" ->
        let small = match opt "--traced-ops" args with Some v -> int_of_string v | None -> 2000 in
        layers spec ~seed ~n ~small ~spans_file:(opt "--spans" args)
    | m -> invalid_arg ("unknown mode " ^ m)
  in
  print_endline (json out)
