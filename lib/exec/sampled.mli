(** SMARTS-style sampled simulation over checkpointed windows,
    optionally parallel across OCaml 5 domains ({!Executor}).

    One pipeline — the {e sweep} — executes the whole program under
    functional warming. At each period's window boundary it emits a
    {!Checkpoint}; every detailed window then runs on its own freshly
    created pipeline seeded from its checkpoint and discarded
    afterwards. A window is therefore a pure function of its
    checkpoint, so the windows can execute in any order on any number
    of domains: CPI samples are reassembled in window order, per-window
    telemetry deltas are merged in window order, and the results —
    CPI, confidence interval, telemetry totals — are identical at every
    domain count, including [domains = 1] (which runs the same
    capture/restore path inline).

    Two variance-reduction refinements ride on the same schedule (see
    [docs/SAMPLING.md]):

    - {e Ranked-set selection} ([?rank_bands = K > 1]): window
      boundaries become {e candidates}, scored by a cheap warming
      signature ({!Bor_sampling.Rank}); each consecutive set of [K]
      candidates contributes one detailed window, chosen by a cycling
      order statistic, cutting the detailed-window count by ~[K] while
      covering the program's behavior spectrum by construction.
    - {e Online stopping} ([?ci_target > 0]): CPI samples fold into a
      streaming estimate ({!Bor_sampling.Stopping}) and the run stops
      dispatching windows once the 95% CI half-width falls below the
      target percentage of the mean. The stop index is re-derived at
      merge time from the in-order sample stream, so early-stopped runs
      are byte-identical at every domain count; parallel dispatch may
      overrun the stop index, and those windows (results and telemetry
      deltas both) are discarded. The sweep always warms to the end of
      the program either way. *)

type window_entry = {
  e_result : (Bor_uarch.Pipeline.window_result, string) result;
  e_tel : Bor_telemetry.Telemetry.export option;
      (** the window's telemetry delta, recorded in a private registry
          by whichever thread executed it; [None] when the window ran
          inline on the job's own registry *)
}
(** One delivered window result: what {!exec_ctx.xc_deliver} accepts. *)

type exec_ctx = {
  xc_window :
    Checkpoint.t -> (Bor_uarch.Pipeline.window_result, string) result;
      (** the detailed window as a {e pure function} of its checkpoint
          (PR 5's purity contract): safe to execute on any thread or
          domain, any number of times, with identical results *)
  xc_deliver : int -> window_entry -> unit;
      (** deliver window [index]'s entry; thread-safe; must be called
          exactly once per dispatched index before [r_drain] returns *)
  xc_digest : string;
      (** the program image's SHA-256 — with the config and plan, the
          shard-key component of a window's content address *)
  xc_plan : Bor_uarch.Sampling_plan.t;  (** the resolved sampling plan *)
  xc_max_cycles : int;  (** per-window cycle budget *)
  xc_telemetry : bool;
      (** whether the job records telemetry; an external runner must
          key shared work units on this, since a shared entry's
          [e_tel] is absorbed verbatim by every job that receives it *)
  xc_stopped : unit -> bool;
      (** the job's advisory stop flag: true once the online stopping
          rule fired or a window was delivered as an [Error] (the merge
          never reads past it). Already-dispatched windows must still be
          delivered (overrun is discarded at merge, so execution order
          cannot change the payload), but a scheduler may deprioritize
          them in favor of live jobs *)
}
(** Everything an external runner needs to execute this run's windows
    as first-class work units. Handed to the [?runner] factory of
    {!run_on}. *)

type runner = {
  r_dispatch : index:int -> boundary:int -> Checkpoint.t -> unit;
      (** execute window [index] (dense dispatch order — the merge
          key) whose checkpoint was captured at schedule [boundary]
          (the period index; under ranked selection the dispatched
          subset is sparse in boundaries but dense in indices).
          [(program digest, config, plan, boundary)] identifies the
          checkpoint content-addressably; [(that, max_cycles,
          telemetry)] identifies the work unit. May execute inline,
          enqueue, or deduplicate against an identical unit from
          another job — as long as every index is eventually
          delivered. *)
  r_drain : unit -> unit;
      (** block until every dispatched window has been delivered;
          called once, after the sweep (also when the sweep failed) *)
}
(** How {!run_on} executes detailed windows: {!builtin_runner} unless
    the caller passes its own, such as the serve global window queue
    ([Bor_serve.Wqueue]). Every runner delivers the same entries, so
    the results are byte-identical whichever one ran. *)

val queue : ?workers:int -> unit -> window_entry Executor.t
(** An {!Executor} of window entries with [workers] (default 0) worker
    domains: a window unit that raises completes with an [Error] entry,
    and no [Error] entry is retained for sharing. *)

val queue_runner :
  window_entry Executor.t ->
  owner:string ->
  key:(index:int -> boundary:int -> Checkpoint.t -> string) ->
  exec_ctx ->
  runner
(** Windows as units of [q] owned by [owner] and named by [key]: two
    dispatches with the same key, from this run or another owner's,
    execute once. Each unit runs against a private telemetry registry
    whose export rides in its entry's [e_tel]; [r_drain] is
    {!Executor.drain}. *)

val builtin_runner : domains:int -> exec_ctx -> runner
(** What {!run_on} uses without [?runner]: at [domains <= 1] each
    window runs inline in the sweep's thread, on the job's own
    registry; otherwise a private {!queue} with [domains] workers,
    keyed by window index (nothing to share), whose [r_drain] also
    joins the workers. A window that raises is delivered as the same
    [Error] entry either way: sanitizer violations, oracle faults and
    memory faults read as a failing sweep's would, anything else as
    ["window execution failed: <exn>"]. *)

type stats = {
  sp_windows : int;  (** detailed windows that produced a CPI sample *)
  sp_instructions : int;  (** total instructions the sweep executed *)
  sp_warmed : int;
      (** instructions executed under functional warming — the whole
          program, since windows run on clones off the sweep *)
  sp_detailed : int;  (** oracle instructions executed inside windows *)
  sp_detailed_cycles : int;  (** cycles simulated in detail, all windows *)
  sp_cpi : float;  (** mean CPI over the measured windows *)
  sp_cpi_ci95 : float;  (** 95% confidence half-width of [sp_cpi] *)
  sp_cycles_estimate : float;  (** extrapolated whole-run cycles *)
  sp_stopped : bool;
      (** the stopping rule truncated the window set before the
          schedule ran out (always [false] when [ci_target = 0]) *)
}

val run_on :
  ?max_cycles:int ->
  ?plan:Bor_uarch.Sampling_plan.t ->
  ?domains:int ->
  ?rank_bands:int ->
  ?ci_target:float ->
  ?runner:(exec_ctx -> runner) ->
  Bor_uarch.Pipeline.t ->
  (stats, string) result
(** Run the whole program under the sampling schedule ([?plan], falling
    back to the pipeline's [Config.sample]; an error when neither is
    set) on a freshly created pipeline, farming detailed windows out to
    [domains] worker domains ([1], the default, runs them inline).
    [max_cycles] (default 2e9) bounds each window individually.

    [rank_bands] (default [1] = off) sets the ranked-set size [K];
    [ci_target] (default [0.] = off) sets the online-stopping CI
    target, as a percent of the mean CPI. Both default to the exact
    pre-existing fixed-period behavior — byte-identical output,
    telemetry included. Errors (not exceptions) on [rank_bands < 1] or
    [ci_target < 0].

    Registers the [sampling.*] telemetry counters — only in sampled
    runs, never in full-detail ones — plus [sampling.rank.*] when
    [rank_bands > 1] and [sampling.stop.*] when [ci_target > 0]. The
    whole telemetry export is identical at every domain count.
    Simulator errors, sanitizer violations and oracle faults from the
    sweep or any window come back as [Error] (a sweep error first, then
    the first failing window in window order).

    [runner] swaps in an external window executor (built from the
    {!exec_ctx} handed to the factory); when given, [domains] is
    ignored — worker provisioning is the runner's business. Results
    and telemetry remain byte-identical to the built-in runners:
    entries are merged strictly in window order, with each entry's
    [e_tel] export absorbed at its in-order merge point. *)

val run :
  ?max_cycles:int ->
  ?plan:Bor_uarch.Sampling_plan.t ->
  ?domains:int ->
  ?rank_bands:int ->
  ?ci_target:float ->
  ?config:Bor_uarch.Config.t ->
  Bor_isa.Program.t ->
  (stats * Bor_uarch.Pipeline.t, string) result
(** {!run_on} on a pipeline created here; also hands back the sweep
    pipeline so callers can read final architectural state. *)

val pp : Format.formatter -> stats -> unit
