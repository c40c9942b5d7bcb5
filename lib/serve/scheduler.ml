module Telemetry = Bor_telemetry.Telemetry
module Executor = Bor_exec.Executor

type disposition = [ `Queued | `Joined | `Hit ]
type outcome = (string * [ `Cold | `Cached ], string) result
type state = Queued | Running | Done of outcome

type entry = { e_spec : Job.spec; mutable e_state : state }

type t = {
  mu : Mutex.t;
  cond : Condition.t;  (* a job finished *)
  jobs : (string, entry) Hashtbl.t;
  q : Bor_exec.Sampled.window_entry Executor.t;
  wq : Wqueue.t;
  mutable stopping : bool;
  s_store : Bor_store.Store.t option;
  s_domains : int;
  (* submit-side counts (owner domain, under [mu]) *)
  mutable n_queued : int;
  mutable n_submitted : int;
  mutable n_joins : int;
  mutable n_mem_hits : int;
  (* worker-side counts *)
  a_failed : int Atomic.t;
  a_cold : int Atomic.t;
  a_cached : int Atomic.t;
  a_busy : int Atomic.t;
  (* serve.* telemetry *)
  c_submitted : Telemetry.counter;
  c_joins : Telemetry.counter;
  h_queue_depth : Telemetry.histogram;
  h_busy : Telemetry.histogram;
  mirrors : (Telemetry.counter * (t -> int) * int ref) list;
      (* counters that mirror a worker-side count: the instrument, how
         to read the count, and how much of it was already added *)
}

let completed t = Atomic.get t.a_cold + Atomic.get t.a_cached

(* A sampled job's windows go through the global queue; every other
   backend runs exactly as before. [key] doubles as the queue's owner
   id, so per-job in-flight gauges and stop flags are addressable by
   the same hex the client polls. *)
let runner_for t ~key spec =
  if String.equal spec.Job.sp_backend "sampled" then
    Some (Wqueue.runner t.wq ~job:key ~config:spec.Job.sp_config)
  else None

(* A job is a low-priority unit on the window queue's executor: workers
   take it only when no window unit is queued, and a thread helping
   with windows never takes it. *)
let run_job t key entry () =
  Mutex.lock t.mu;
  entry.e_state <- Running;
  t.n_queued <- t.n_queued - 1;
  Mutex.unlock t.mu;
  Atomic.incr t.a_busy;
  let outcome =
    try
      Job.run ?store:t.s_store ?runner:(runner_for t ~key entry.e_spec)
        entry.e_spec
    with e -> Error ("job failed: " ^ Printexc.to_string e)
  in
  Atomic.incr
    (match outcome with
    | Ok (_, `Cold) -> t.a_cold
    | Ok (_, `Cached) -> t.a_cached
    | Error _ -> t.a_failed);
  Atomic.decr t.a_busy;
  Mutex.lock t.mu;
  entry.e_state <- Done outcome;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

let create ?(domains = 1) ?store () =
  if domains < 1 then invalid_arg "Scheduler.create: domains must be >= 1";
  let counter scope unit_ doc name = Telemetry.counter scope ~unit_ ~doc name in
  let mirror scope unit_ doc name read =
    (counter scope unit_ doc name, read, ref 0)
  in
  let scope = Telemetry.scope "serve" in
  let wscope = Telemetry.scope "serve.windows" in
  let shscope = Telemetry.scope "serve.shards" in
  let q = Bor_exec.Sampled.queue ~workers:domains () in
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    jobs = Hashtbl.create 64;
    q;
    wq = Wqueue.create ~queue:q ?store ();
    stopping = false;
    s_store = store;
    s_domains = domains;
    n_queued = 0;
    n_submitted = 0;
    n_joins = 0;
    n_mem_hits = 0;
    a_failed = Atomic.make 0;
    a_cold = Atomic.make 0;
    a_cached = Atomic.make 0;
    a_busy = Atomic.make 0;
    c_submitted =
      counter scope "jobs" "submissions accepted (all dispositions)"
        "jobs.submitted";
    c_joins =
      counter scope "jobs" "submissions that joined an in-flight job"
        "dedup.joins";
    h_queue_depth =
      Telemetry.histogram scope ~unit_:"jobs"
        ~doc:"queue depth observed at each submission" "queue.depth";
    h_busy =
      Telemetry.histogram scope ~unit_:"workers"
        ~doc:"busy workers observed at each submission" "workers.busy";
    (* Memory hits and store hits both count as serve.cache.hits; only
       cold runs are misses. *)
    mirrors =
      [
        mirror scope "jobs" "worker runs that returned Ok" "jobs.completed"
          (fun t -> completed t);
        mirror scope "jobs" "worker runs that returned an error" "jobs.failed"
          (fun t -> Atomic.get t.a_failed);
        mirror scope "jobs"
          "submissions answered without a fresh run (memory or store)"
          "cache.hits"
          (fun t -> t.n_mem_hits + Atomic.get t.a_cached);
        mirror scope "jobs" "jobs computed cold" "cache.misses" (fun t ->
            Atomic.get t.a_cold);
        mirror wscope "windows"
          "window work units dispatched into the global queue" "dispatched"
          (fun t -> Executor.dispatched t.q);
        mirror wscope "windows"
          "window work units executed (once each, however many jobs share \
           them)"
          "executed"
          (fun t -> Executor.executed t.q);
        mirror wscope "windows"
          "dispatches answered by an existing work unit (cross-job shard \
           sharing)"
          "shared_shard_hits"
          (fun t -> Executor.shared_hits t.q);
        mirror wscope "windows"
          "window executions that failed (fails the owning jobs only, never \
           cached)"
          "failed"
          (fun t -> Executor.failed t.q);
        mirror shscope "checkpoints"
          "warming checkpoints published under shard keys" "published"
          (fun t -> Wqueue.shards_published t.wq);
        mirror shscope "checkpoints"
          "shard publications skipped: store already had the bytes" "present"
          (fun t -> Wqueue.shards_present t.wq);
      ];
  }

(* Instruments belong to the domain that created the scheduler and are
   only touched there (submit/stats run on that domain), never by
   workers — instruments must not cross domains. Worker-side counts
   reach them here, as deltas. *)
let sync t =
  List.iter
    (fun (counter, read, added) ->
      let current = read t in
      if current > !added then begin
        Telemetry.add counter (current - !added);
        added := current
      end)
    t.mirrors

let submit t spec =
  let key = Bor_store.Key.hex (Job.key spec) in
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    invalid_arg "Scheduler.submit: scheduler is shut down"
  end;
  t.n_submitted <- t.n_submitted + 1;
  Telemetry.incr t.c_submitted;
  Telemetry.observe t.h_queue_depth t.n_queued;
  Telemetry.observe t.h_busy (Atomic.get t.a_busy);
  let disposition =
    match Hashtbl.find_opt t.jobs key with
    | Some { e_state = Done _; _ } ->
        t.n_mem_hits <- t.n_mem_hits + 1;
        `Hit
    | Some _ ->
        t.n_joins <- t.n_joins + 1;
        Telemetry.incr t.c_joins;
        `Joined
    | None ->
        let entry = { e_spec = spec; e_state = Queued } in
        Hashtbl.add t.jobs key entry;
        t.n_queued <- t.n_queued + 1;
        Executor.spawn t.q (run_job t key entry);
        `Queued
  in
  sync t;
  Mutex.unlock t.mu;
  (key, disposition)

let job_state t key =
  Mutex.lock t.mu;
  let st = Option.map (fun e -> e.e_state) (Hashtbl.find_opt t.jobs key) in
  Mutex.unlock t.mu;
  st

let await t key =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.jobs key with
  | None ->
      Mutex.unlock t.mu;
      None
  | Some entry ->
      let rec wait () =
        match entry.e_state with
        | Done outcome -> outcome
        | Queued | Running ->
            Condition.wait t.cond t.mu;
            wait ()
      in
      let outcome = wait () in
      Mutex.unlock t.mu;
      Some outcome

let stats t =
  Mutex.lock t.mu;
  sync t;
  let base =
    [
      ("submitted", t.n_submitted);
      ("completed", completed t);
      ("failed", Atomic.get t.a_failed);
      ("cache_hits", t.n_mem_hits + Atomic.get t.a_cached);
      ("cache_misses", Atomic.get t.a_cold);
      ("dedup_joins", t.n_joins);
      ("queue_depth", t.n_queued);
      ("workers_busy", Atomic.get t.a_busy);
      ("workers", t.s_domains);
    ]
  in
  Mutex.unlock t.mu;
  let base =
    base
    @ [
        ("windows_queued", Executor.depth t.q);
        ( "windows_inflight",
          List.fold_left (fun n (_, k) -> n + k) 0
            (Executor.inflight_by_owner t.q) );
        ("windows_dispatched", Executor.dispatched t.q);
        ("windows_executed", Executor.executed t.q);
        ("windows_shared_shard_hits", Executor.shared_hits t.q);
        ("windows_failed", Executor.failed t.q);
        ("shards_published", Wqueue.shards_published t.wq);
        ("shards_present", Wqueue.shards_present t.wq);
      ]
  in
  match t.s_store with
  | None -> base
  | Some st ->
      let s = Bor_store.Store.stats st in
      base
      @ [
          ("store_hits", s.Bor_store.Store.st_hits);
          ("store_misses", s.Bor_store.Store.st_misses);
          ("store_corrupt", s.Bor_store.Store.st_corrupt);
          ("store_puts", s.Bor_store.Store.st_puts);
          ("store_evictions", s.Bor_store.Store.st_evictions);
        ]

(* One-shot plaintext metrics dump ([bor serve --metrics-socket]):
   prometheus-style [name value] lines derived from [stats], plus a
   per-job in-flight gauge. Text, not a wire frame — scrapable with
   netcat. *)
let metrics_text t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "bor_serve_%s %d\n" k v))
    (stats t);
  List.iter
    (fun (job, n) ->
      Buffer.add_string b
        (Printf.sprintf "bor_serve_job_inflight_windows{job=\"%s\"} %d\n" job n))
    (Executor.inflight_by_owner t.q);
  Buffer.contents b

let shutdown t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Mutex.unlock t.mu;
  Executor.shutdown t.q
