(** The one executor: a help-first unit queue over OCaml 5 domains —
    the only place in the libraries that spawns a domain.

    Two priority classes share one queue and one set of workers:

    - {e Window units} ({!dispatch}) are keyed: a unit whose key is
      already queued, running or finished is {e shared} — it executes
      once and every owner that asked for it receives the same value.
      Each owner has a bounded number of undelivered units (see
      {!create}); a dispatch over the bound, and {!drain}, block by {e helping}: the
      blocked thread executes queued window units itself. Progress
      therefore needs no worker at all. A unit that only stopped owners
      wait on is rotated behind units a live owner needs — never
      skipped, since every dispatched unit must still deliver.
    - {e Job units} ({!spawn}) are opaque closures that run only on
      worker domains, and only when no window unit is queued. A helper
      never runs one, so a job never starts inside another job's
      dispatch or drain.

    Failure semantics are the same on every thread: a window unit whose
    function raises completes with the [error] value, is delivered to
    all its owners, and — like every value [is_error] accepts — is
    counted in {!failed} and {e never} retained, so a later identical
    dispatch recomputes. No unit's exception reaches a worker's loop. *)

type 'v t

val create :
  ?workers:int ->
  ?init:(unit -> unit) ->
  error:(exn -> 'v) ->
  is_error:('v -> bool) ->
  unit ->
  'v t
(** Spawn [workers] (default 0) worker domains, each running [init]
    once before it takes a unit. [error] builds the value of a window
    unit that raised, from its exception. Each owner may have
    [max 4 (2 * workers)] undelivered window units, and the last 512
    finished units stay addressable for sharing. *)

val dispatch :
  'v t ->
  owner:string ->
  key:string ->
  exec:(unit -> 'v) ->
  deliver:('v -> unit) ->
  stopped:(unit -> bool) ->
  unit
(** Request the window unit [key] for [owner]: run [exec] unless a unit
    with that key is queued, running or finished, and [deliver] its
    value on this or any other thread, before or after returning.
    [exec] must be a pure function of [key]. [stopped] is the owner's
    advisory stop flag. *)

val drain : 'v t -> owner:string -> unit
(** Block until every unit [owner] dispatched has been delivered,
    executing queued window units (any owner's) meanwhile. *)

val spawn : 'v t -> (unit -> unit) -> unit
(** Queue a job unit. It must handle its own failures: an exception
    that escapes it is dropped, so the worker keeps serving.
    @raise Invalid_argument without workers or after {!shutdown}. *)

val shutdown : 'v t -> unit
(** Let the workers finish every queued unit, then join them.
    Idempotent; dispatching afterwards still works (by helping). *)

val map :
  ?workers:int -> ?init:(unit -> unit) -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~workers f items] applies [f] to every item as job units on up
    to [workers] worker domains, each running [init] first; [1], the
    default, runs [init] and then maps sequentially in the calling
    domain. Results come back in submission order. If any [f] raises,
    every item still runs, all workers are joined, and then the
    exception of the {e earliest} item is re-raised. *)

(** {2 Counters}

    Window units only. The first four are lock-free atomic reads; the
    others take the queue's lock. *)

val dispatched : 'v t -> int
(** Dispatches, including shared and immediate hits. *)

val executed : 'v t -> int
(** Units actually run (once each, however many owners share them). *)

val shared_hits : 'v t -> int
(** Dispatches answered by an existing unit instead of a fresh run. *)

val failed : 'v t -> int
(** Executions whose value [is_error] (including exceptions). *)

val depth : 'v t -> int
(** Units queued and not yet claimed. *)

val inflight_by_owner : 'v t -> (string * int) list
(** Per-owner undelivered units (a shared unit counts once per waiting
    owner), sorted by owner. *)
