(** The global window queue: detailed windows from concurrent sampled
    jobs as units of one {!Bor_exec.Executor} — scheduling, sharing and
    failure isolation are the executor's. A unit is keyed by

    {v (shard key hex) ^ " mc=" ^ max_cycles ^ " tel=" ^ telemetry v}

    where the shard key is {!Bor_store.Key.shard} — (program digest,
    config, whole plan, boundary index) — so two jobs that share a
    program prefix and plan {e share the unit}: it executes once and
    both jobs receive the same entry, telemetry delta included. Window
    purity makes that sound; the in-order absorb at each job's merge
    point keeps every payload byte-identical to a standalone run.

    When a store is configured, each captured checkpoint is also
    published under its shard address (best-effort, [bor-shard-v1]
    family) for cross-process reuse. *)

type t

val create :
  ?queue:Bor_exec.Sampled.window_entry Bor_exec.Executor.t ->
  ?store:Bor_store.Store.t ->
  unit ->
  t
(** Windows become units of [queue] (default: a fresh
    {!Bor_exec.Sampled.queue} without workers, so every window runs on
    the thread that drains its job). The serve scheduler passes the
    executor its jobs run on. *)

val runner :
  t ->
  job:string ->
  config:Bor_uarch.Config.t ->
  Bor_exec.Sampled.exec_ctx ->
  Bor_exec.Sampled.runner
(** The runner a sampled job plugs into {!Bor_exec.Sampled.run_on}:
    dispatch publishes the checkpoint shard (when a store is
    configured) and enqueues/joins the work unit; drain help-executes
    until every one of [job]'s units has been delivered. [job] is any
    stable identifier unique to the running job (the scheduler uses
    the job key hex); [config] must be the job's pipeline config. *)

val shards_published : t -> int
(** Checkpoints published to the store under shard keys. *)

val shards_present : t -> int
(** Shard publications skipped because the store already had the
    bytes. *)
