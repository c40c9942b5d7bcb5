(* An owner's claim on a window unit: several owners can wait on one
   unit — that is the whole point of keying them. *)
type 'v waiter = {
  w_owner : string;
  w_deliver : 'v -> unit;
  w_stopped : unit -> bool;
}

type 'v state = Pending of (unit -> 'v) | Running | Finished of 'v

type 'v wunit = {
  u_key : string;
  mutable u_state : 'v state;
  mutable u_waiters : 'v waiter list;  (* arrival order, reversed *)
}

(* How many finished units stay addressable for sharing. *)
let finished_cap = 512

type 'v t = {
  mu : Mutex.t;
  work : Condition.t;  (* workers: a unit arrived, or shutting down *)
  progress : Condition.t;
      (* helpers: a window unit arrived or completed; broadcast only
         while [helpers] > 0, so no worker is woken for nothing *)
  mutable helpers : int;
  windows : 'v wunit Queue.t;
  jobs : (unit -> unit) Queue.t;
  table : (string, 'v wunit) Hashtbl.t;
  (* completion order of successful units; bounds [table] so a
     long-lived queue does not keep every value it ever computed *)
  finished : string Queue.t;
  (* per-owner undelivered units: the dispatch backpressure bound and
     the drain condition *)
  inflight : (string, int) Hashtbl.t;
  inflight_cap : int;
  error : exn -> 'v;
  is_error : 'v -> bool;
  mutable domains : unit Domain.t list;
  mutable stopping : bool;
  a_dispatched : int Atomic.t;
  a_executed : int Atomic.t;
  a_shared : int Atomic.t;
  a_failed : int Atomic.t;
}

let inflight_of q owner =
  match Hashtbl.find_opt q.inflight owner with Some n -> n | None -> 0

let incr_inflight q owner =
  Hashtbl.replace q.inflight owner (inflight_of q owner + 1)

let decr_inflight q owner =
  match Hashtbl.find_opt q.inflight owner with
  | Some n when n > 1 -> Hashtbl.replace q.inflight owner (n - 1)
  | Some _ -> Hashtbl.remove q.inflight owner
  | None -> ()

(* Claim the next window unit (lock held), preferring one a live owner
   waits on: a stopped owner's overrun windows are discarded at its
   merge anyway, so they yield to units whose results still count.
   Stopped-only units are rotated to the back, never skipped. *)
let take_window q =
  let live u = List.exists (fun w -> not (w.w_stopped ())) u.u_waiters in
  let n = Queue.length q.windows in
  let rec pick i =
    if i >= n then Queue.take_opt q.windows
    else
      let u = Queue.pop q.windows in
      if live u then Some u
      else begin
        Queue.push u q.windows;
        pick (i + 1)
      end
  in
  match pick 0 with
  | Some ({ u_state = Pending exec; _ } as u) ->
    u.u_state <- Running;
    Some (u, exec)
  | Some _ | None -> None (* units leave the queue exactly once *)

let complete q u v =
  Mutex.lock q.mu;
  u.u_state <- Finished v;
  let waiters = List.rev u.u_waiters in
  u.u_waiters <- [];
  if q.is_error v then begin
    (* Never retained: a later identical dispatch recomputes instead of
       inheriting the failure. Owners already waiting do observe it —
       it is their unit that failed. *)
    match Hashtbl.find_opt q.table u.u_key with
    | Some u' when u' == u -> Hashtbl.remove q.table u.u_key
    | Some _ | None -> ()
  end
  else begin
    Queue.push u.u_key q.finished;
    while Queue.length q.finished > finished_cap do
      let old = Queue.pop q.finished in
      match Hashtbl.find_opt q.table old with
      | Some { u_state = Finished _; _ } -> Hashtbl.remove q.table old
      | Some _ | None -> ()
    done
  end;
  Mutex.unlock q.mu;
  (* Deliver outside the lock, but release the in-flight slots only
     afterwards: [drain] returning must imply every delivery happened. *)
  List.iter (fun w -> w.w_deliver v) waiters;
  Mutex.lock q.mu;
  List.iter (fun w -> decr_inflight q w.w_owner) waiters;
  if q.helpers > 0 then Condition.broadcast q.progress;
  Mutex.unlock q.mu

let execute q (u, exec) =
  let v = try exec () with e -> q.error e in
  Atomic.incr q.a_executed;
  if q.is_error v then Atomic.incr q.a_failed;
  complete q u v

(* Help-first (lock held): while [pred], run queued window units — never
   job units — instead of waiting. *)
let rec help_while q pred =
  if pred () then begin
    match take_window q with
    | Some h ->
      Mutex.unlock q.mu;
      execute q h;
      Mutex.lock q.mu;
      help_while q pred
    | None ->
      q.helpers <- q.helpers + 1;
      Condition.wait q.progress q.mu;
      q.helpers <- q.helpers - 1;
      help_while q pred
  end

(* Window units first: finishing the work already in flight beats
   starting a job that widens it. *)
let rec worker q =
  Mutex.lock q.mu;
  let rec next () =
    match take_window q with
    | Some h -> Some (fun () -> execute q h)
    | None -> (
      match Queue.take_opt q.jobs with
      | Some job -> Some (fun () -> try job () with _ -> ())
      | None when q.stopping -> None
      | None ->
        Condition.wait q.work q.mu;
        next ())
  in
  let task = next () in
  Mutex.unlock q.mu;
  match task with
  | None -> ()
  | Some run ->
    run ();
    worker q

let create ?(workers = 0) ?(init = ignore) ~error ~is_error () =
  if workers < 0 then invalid_arg "Executor.create: workers >= 0";
  let q =
    {
      mu = Mutex.create ();
      work = Condition.create ();
      progress = Condition.create ();
      helpers = 0;
      windows = Queue.create ();
      jobs = Queue.create ();
      table = Hashtbl.create 256;
      finished = Queue.create ();
      inflight = Hashtbl.create 16;
      (* enough undelivered units per owner to keep every worker busy
         while the owner computes the next one *)
      inflight_cap = max 4 (2 * workers);
      error;
      is_error;
      domains = [];
      stopping = false;
      a_dispatched = Atomic.make 0;
      a_executed = Atomic.make 0;
      a_shared = Atomic.make 0;
      a_failed = Atomic.make 0;
    }
  in
  q.domains <-
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            init ();
            worker q));
  q

let dispatch q ~owner ~key ~exec ~deliver ~stopped =
  Atomic.incr q.a_dispatched;
  Mutex.lock q.mu;
  help_while q (fun () -> inflight_of q owner >= q.inflight_cap);
  let w = { w_owner = owner; w_deliver = deliver; w_stopped = stopped } in
  match Hashtbl.find_opt q.table key with
  | Some { u_state = Finished v; _ } ->
    Atomic.incr q.a_shared;
    Mutex.unlock q.mu;
    deliver v
  | Some u ->
    Atomic.incr q.a_shared;
    u.u_waiters <- w :: u.u_waiters;
    incr_inflight q owner;
    Mutex.unlock q.mu
  | None ->
    let u = { u_key = key; u_state = Pending exec; u_waiters = [ w ] } in
    Hashtbl.add q.table key u;
    Queue.push u q.windows;
    incr_inflight q owner;
    Condition.signal q.work;
    if q.helpers > 0 then Condition.broadcast q.progress;
    Mutex.unlock q.mu

let drain q ~owner =
  Mutex.lock q.mu;
  help_while q (fun () -> inflight_of q owner > 0);
  Mutex.unlock q.mu

let spawn q job =
  Mutex.protect q.mu (fun () ->
      match q.domains with
      | [] -> invalid_arg "Executor.spawn: no workers to run a job unit"
      | _ :: _ ->
        Queue.push job q.jobs;
        Condition.signal q.work)

let shutdown q =
  Mutex.lock q.mu;
  let ds = q.domains in
  q.domains <- [];
  q.stopping <- true;
  Condition.broadcast q.work;
  Mutex.unlock q.mu;
  List.iter Domain.join ds

let map ?(workers = 1) ?(init = ignore) f items =
  let n = Array.length items in
  let workers = min workers n in
  if workers <= 1 then begin
    init ();
    Array.map f items
  end
  else begin
    let out = Array.make n None in
    let q =
      create ~workers ~init ~error:ignore ~is_error:(fun () -> false) ()
    in
    Array.iteri
      (fun i x ->
        spawn q (fun () -> out.(i) <- Some (try Ok (f x) with e -> Error e)))
      items;
    shutdown q;
    (* Slots are disjoint per item and the joins order every write
       before these reads. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      out
  end

let dispatched q = Atomic.get q.a_dispatched
let executed q = Atomic.get q.a_executed
let shared_hits q = Atomic.get q.a_shared
let failed q = Atomic.get q.a_failed

let depth q = Mutex.protect q.mu (fun () -> Queue.length q.windows)

let inflight_by_owner q =
  List.sort compare
    (Mutex.protect q.mu (fun () ->
         Hashtbl.fold (fun owner n acc -> (owner, n) :: acc) q.inflight []))
