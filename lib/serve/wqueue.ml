module Sampled = Bor_exec.Sampled
module Checkpoint = Bor_exec.Checkpoint
module Key = Bor_store.Key
module Store = Bor_store.Store

type t = {
  q : Sampled.window_entry Bor_exec.Executor.t;
  w_store : Store.t option;
  a_shard_put : int Atomic.t;
  a_shard_present : int Atomic.t;
}

let create ?(queue = Sampled.queue ()) ?store () =
  {
    q = queue;
    w_store = store;
    a_shard_put = Atomic.make 0;
    a_shard_present = Atomic.make 0;
  }

let runner t ~job ~config ctx =
  let key ~index:_ ~boundary ck =
    let sk =
      Key.shard ~program_digest:ctx.Sampled.xc_digest ~config
        ~plan:ctx.Sampled.xc_plan ~boundary ()
    in
    (* Publish the captured checkpoint under its shard address so other
       processes (bor checkpoint resume, future warm starts) can fetch
       it; best-effort, like every store write. [mem] first: rewriting
       identical bytes every job would churn the LRU for nothing. *)
    (match t.w_store with
    | None -> ()
    | Some st ->
      if Store.mem st sk then Atomic.incr t.a_shard_present
      else begin
        (match Checkpoint.to_store st sk ck with Ok () | Error _ -> ());
        Atomic.incr t.a_shard_put
      end);
    Printf.sprintf "%s mc=%d tel=%b" (Key.hex sk) ctx.Sampled.xc_max_cycles
      ctx.Sampled.xc_telemetry
  in
  Sampled.queue_runner t.q ~owner:job ~key ctx

let shards_published t = Atomic.get t.a_shard_put
let shards_present t = Atomic.get t.a_shard_present
