(* Tests for Bor_exec: the unified execution backends, versioned
   digest-stamped checkpoints (round trips, corruption and version
   rejection — always [Error], never an exception), the one executor
   (each case at 0 and 2 workers) and domain-parallel sampled
   simulation (statistics, telemetry and final architectural state
   byte-identical at every domain count, and the same [Error] for a
   raising window under every executor). *)

module Backend = Bor_exec.Backend
module Checkpoint = Bor_exec.Checkpoint
module Sampled = Bor_exec.Sampled
module Executor = Bor_exec.Executor
module Wqueue = Bor_serve.Wqueue
module Pipeline = Bor_uarch.Pipeline
module Machine = Bor_sim.Machine
module Telemetry = Bor_telemetry.Telemetry
module Json = Bor_telemetry.Json

let check = Alcotest.check

let brr64 =
  Bor_minic.Instrument.(
    Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))

let micro_prog =
  lazy (Bor_workload.Micro.compile ~chars:60_000 brr64).Bor_minic.Driver.program

let alu_prog =
  lazy
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 50000; i = i + 1) s = \
        s + i; return s; }")
      .Bor_minic.Driver.program

let plan_exn s =
  match Bor_uarch.Sampling_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let lfsr_of p = Bor_lfsr.Lfsr.peek (Bor_core.Engine.lfsr (Pipeline.engine p))

let uarch_digests p =
  Bor_uarch.Hierarchy.state_digests (Pipeline.hierarchy p)
  @ [
      ("predictor", Bor_uarch.Predictor.state_digest (Pipeline.predictor p));
      ("btb", Bor_uarch.Btb.state_digest (Pipeline.btb p));
      ("ras", Bor_uarch.Ras.state_digest (Pipeline.ras p));
      ("lfsr", string_of_int (lfsr_of p));
    ]

(* Warm a fresh pipeline partway into the program and capture it. *)
let warmed_checkpoint ?(steps = 20_000) prog =
  let p = Pipeline.create prog in
  ignore (Pipeline.run_warming ~max_steps:steps p);
  let digest = Checkpoint.program_digest prog in
  (p, digest, Checkpoint.capture ~program_digest:digest p)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ----------------------------------------------------- checkpoint *)

let test_restore_matches_capture () =
  let prog = Lazy.force micro_prog in
  let src, digest, ck = warmed_checkpoint prog in
  let dst = Pipeline.create prog in
  (match Checkpoint.restore ck ~program_digest:digest dst with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check
    Alcotest.(list (pair string string))
    "microarchitectural state digests" (uarch_digests src) (uarch_digests dst);
  let ms = Pipeline.oracle src and md = Pipeline.oracle dst in
  check Alcotest.int "pc" (Machine.pc ms) (Machine.pc md);
  for i = 0 to Bor_isa.Reg.count - 1 do
    let r = Bor_isa.Reg.of_int i in
    check Alcotest.int (Bor_isa.Reg.name r) (Machine.reg ms r)
      (Machine.reg md r)
  done;
  let db = prog.Bor_isa.Program.data_base in
  let mem_s = Machine.memory ms and mem_d = Machine.memory md in
  for i = 0 to Bytes.length prog.Bor_isa.Program.data - 1 do
    if
      Bor_sim.Memory.read_byte mem_s (db + i)
      <> Bor_sim.Memory.read_byte mem_d (db + i)
    then Alcotest.failf "data byte at offset %d differs after restore" i
  done

let test_resumed_run_deterministic () =
  let prog = Lazy.force micro_prog in
  let _, _, ck = warmed_checkpoint prog in
  let run () =
    match Backend.resume ck prog with
    | Error e -> Alcotest.fail e
    | Ok b -> (
      match b.Backend.run () with
      | Ok (Backend.Detailed st) -> (st, b.Backend.state_digests ())
      | Ok _ -> Alcotest.fail "resume reported a non-detailed result"
      | Error e -> Alcotest.fail e)
  in
  let st1, d1 = run () in
  let st2, d2 = run () in
  check Alcotest.bool "two resumes retire identical stats" true (st1 = st2);
  check
    Alcotest.(list (pair string string))
    "two resumes end in identical warmed state" d1 d2;
  check Alcotest.bool "the resumed run made progress" true
    (st1.Pipeline.instructions > 0)

let test_serialized_roundtrip () =
  let prog = Lazy.force micro_prog in
  let _, _, ck = warmed_checkpoint prog in
  let s = Checkpoint.to_string ck in
  (match Checkpoint.of_string s with
  | Error e -> Alcotest.fail e
  | Ok ck' ->
    check Alcotest.string "parse . print = identity" s
      (Checkpoint.to_string ck'));
  let tmp = Filename.temp_file "bor_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      (match Checkpoint.save_file tmp ck with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Checkpoint.load_file tmp with
      | Error e -> Alcotest.fail e
      | Ok ck' -> (
        check Alcotest.string "file round trip" s (Checkpoint.to_string ck');
        let dst = Pipeline.create prog in
        match
          Checkpoint.restore ck'
            ~program_digest:(Checkpoint.program_digest prog)
            dst
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e))

let test_rejects_bad_input () =
  let prog = Lazy.force micro_prog in
  let _, _, ck = warmed_checkpoint prog in
  let s = Checkpoint.to_string ck in
  let expect_error what x =
    match Checkpoint.of_string x with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e -> e
  in
  let e =
    expect_error "bad magic"
      ("XXXCKPT\n" ^ String.sub s 8 (String.length s - 8))
  in
  check Alcotest.bool "magic named in diagnostic" true (contains e "magic");
  let flipped = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  let e = expect_error "flipped payload byte" (Bytes.to_string flipped) in
  check Alcotest.bool "stamp named in diagnostic" true (contains e "SHA-256");
  ignore (expect_error "truncated" (String.sub s 0 (String.length s - 100)));
  ignore (expect_error "empty" "");
  (* A future format version with a correctly recomputed stamp must be
     refused by the version check, not misparsed. *)
  let payload = Bytes.of_string (String.sub s 0 (String.length s - 64)) in
  Bytes.set_int64_le payload 8 (Int64.of_int (Checkpoint.version + 1));
  let forged = Bytes.to_string payload in
  let e =
    expect_error "future version" (forged ^ Bor_telemetry.Sha256.digest forged)
  in
  check Alcotest.bool "version named in diagnostic" true (contains e "version")

let test_rejects_wrong_program () =
  let _, _, ck = warmed_checkpoint (Lazy.force micro_prog) in
  match Backend.resume ck (Lazy.force alu_prog) with
  | Ok _ -> Alcotest.fail "checkpoint accepted against a different program"
  | Error e ->
    check Alcotest.bool "program mismatch named in diagnostic" true
      (contains e "different program")

(* Checkpoints never serialize the warmer's block translation cache:
   capturing from a block-warmed pipeline and resuming into a fresh
   one must rebuild blocks on demand and finish in exactly the state
   of an uninterrupted warming run. *)
let test_checkpoint_rebuilds_block_cache () =
  let prog = Lazy.force micro_prog in
  let src = Pipeline.create prog in
  ignore (Pipeline.run_warming ~max_steps:20_000 src);
  (match Pipeline.block_cache src with
  | Some bc ->
    check Alcotest.bool "cache was populated before capture" true
      ((Bor_uarch.Block.stats bc).Bor_uarch.Block.hits > 0)
  | None -> Alcotest.fail "block cache was never created");
  let digest = Checkpoint.program_digest prog in
  let ck = Checkpoint.capture ~program_digest:digest src in
  let dst = Pipeline.create prog in
  (match Checkpoint.restore ck ~program_digest:digest dst with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "restored pipeline starts with no cache" true
    (match Pipeline.block_cache dst with None -> true | Some _ -> false);
  ignore (Pipeline.run_warming src);
  ignore (Pipeline.run_warming dst);
  let uninterrupted = Pipeline.create prog in
  ignore (Pipeline.run_warming uninterrupted);
  check
    Alcotest.(list (pair string string))
    "capture source finishes like an uninterrupted run"
    (uarch_digests uninterrupted) (uarch_digests src);
  check
    Alcotest.(list (pair string string))
    "restored pipeline finishes in the same state" (uarch_digests src)
    (uarch_digests dst)

(* ------------------------------------------------- parallel sampled *)

let snapshot_arch prog p =
  let m = Pipeline.oracle p in
  let db = prog.Bor_isa.Program.data_base in
  let mem = Machine.memory m in
  ( Machine.pc m,
    Array.init Bor_isa.Reg.count (fun i ->
        Machine.reg m (Bor_isa.Reg.of_int i)),
    Array.init
      (Bytes.length prog.Bor_isa.Program.data)
      (fun i -> Bor_sim.Memory.read_byte mem (db + i)) )

let test_parallel_matches_sequential () =
  let prog = Lazy.force micro_prog in
  let plan = plan_exn "500:300:5000:3" in
  let run domains =
    Telemetry.clear ();
    Telemetry.set_enabled true;
    match Sampled.run ~plan ~domains prog with
    | Error e -> Alcotest.fail e
    | Ok (s, t) ->
      (s, Json.to_string (Telemetry.to_json ()), snapshot_arch prog t)
  in
  let s1, tel1, a1 = run 1 in
  let s4, tel4, a4 = run 4 in
  check Alcotest.bool "4-domain stats = sequential stats" true (s1 = s4);
  check Alcotest.string "4-domain telemetry = sequential telemetry" tel1 tel4;
  check Alcotest.bool "4-domain final architectural state = sequential" true
    (a1 = a4);
  let s3, tel3, a3 = run 3 in
  check Alcotest.bool "3-domain stats = sequential stats" true (s1 = s3);
  check Alcotest.string "3-domain telemetry = sequential telemetry" tel1 tel3;
  check Alcotest.bool "3-domain final architectural state = sequential" true
    (a1 = a3);
  Telemetry.clear ();
  Telemetry.set_enabled false

(* Runs 3000 loop iterations, then loads from an unmapped address: the
   warming sweep itself faults near the end of the program. *)
let faulting_prog =
  lazy
    (match
       Bor_isa.Asm.assemble
         "main: li t0, 3000\n\
          loop: addi t1, t1, 1\n\
          addi t0, t0, -1\n\
          bne t0, zero, loop\n\
          li t2, 0x7ffffff0\n\
          lw t3, 0(t2)\n\
          halt\n"
     with
    | Ok p -> p
    | Error e -> Alcotest.fail e.Bor_isa.Asm.message)

(* A window that raises is delivered as the same [Error] entry by every
   executor — inline, worker domains, the serve queue with or without
   workers — and the run reports that error instead of raising or
   blocking. When the sweep faults too, the sweep's error wins on every
   executor: the sweep always warms to the end, whatever thread ran the
   failing window first. *)
let test_raising_window_same_error_everywhere () =
  let plan = plan_exn "200:100:2000:7" in
  let raising make ctx =
    make
      {
        ctx with
        Sampled.xc_window = (fun _ -> failwith "window exploded");
      }
  in
  let run prog runner =
    match Sampled.run_on ~plan ~runner (Pipeline.create prog) with
    | Ok _ -> Alcotest.fail "a raising window reported success"
    | Error e -> e
  in
  List.iter
    (fun (prog, expected) ->
      let prog = Lazy.force prog in
      let inline = run prog (raising (Sampled.builtin_runner ~domains:1)) in
      check Alcotest.bool ("inline error names " ^ expected) true
        (contains inline expected);
      check Alcotest.string "2 workers = inline" inline
        (run prog (raising (Sampled.builtin_runner ~domains:2)));
      List.iter
        (fun workers ->
          let q = Sampled.queue ~workers () in
          let wq = Wqueue.create ~queue:q () in
          check Alcotest.string
            (Printf.sprintf "serve queue, %d workers = inline" workers)
            inline
            (run prog
               (raising
                  (Wqueue.runner wq ~job:"job"
                     ~config:Bor_uarch.Config.default)));
          Executor.shutdown q)
        [ 0; 2 ])
    [
      (alu_prog, "window exploded");
      (faulting_prog, "oracle fault at 0x101c: word read out of bounds");
    ]

let test_sampled_window_checkpoints_fresh_pipeline_only () =
  let prog = Lazy.force alu_prog in
  let t = Pipeline.create prog in
  (match Pipeline.run t with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Sampled.run_on ~plan:(plan_exn "20:30:120") t with
  | Ok _ -> Alcotest.fail "sampled run accepted a used pipeline"
  | Error e ->
    check Alcotest.bool "freshness named in diagnostic" true
      (contains e "freshly created")

(* --------------------------------------------------------- executor *)

let worker_counts = [ 0; 2 ]

let test_map_preserves_order () =
  List.iter
    (fun workers ->
      let out = Executor.map ~workers (fun i -> i * i) (Array.init 37 Fun.id) in
      Array.iteri
        (fun i v ->
          check Alcotest.int
            (Printf.sprintf "slot matches item at %d workers" workers)
            (i * i) v)
        out)
    worker_counts

let test_map_propagates_first_failure () =
  List.iter
    (fun workers ->
      match
        Executor.map ~workers
          (fun i -> if i mod 5 = 3 then failwith (string_of_int i) else i)
          (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected a propagated exception"
      | exception Failure msg ->
        (* Items 3, 8 and 13 fail; submission order pins which wins. *)
        check Alcotest.string
          (Printf.sprintf "earliest item's exception wins at %d workers"
             workers)
          "3" msg)
    worker_counts

let test_map_runs_init_per_domain () =
  List.iter
    (fun workers ->
      let inits = Atomic.make 0 in
      let out =
        Executor.map ~workers
          ~init:(fun () -> Atomic.incr inits)
          (fun i -> i + 1)
          (Array.init 12 Fun.id)
      in
      check Alcotest.int "all items mapped" 12 (Array.length out);
      (* No workers: init runs once, in the calling domain. *)
      check Alcotest.int
        (Printf.sprintf "one init per domain at %d workers" workers)
        (max 1 workers) (Atomic.get inits))
    worker_counts

let entry_ok sample =
  {
    Sampled.e_result =
      Ok { Pipeline.w_sample = Some sample; w_detailed = 10; w_cycles = 20 };
    e_tel = None;
  }

let never_stopped () = false

(* One failing window unit fails only the owners waiting on it — other
   units (and other owners) are untouched — and the failure is never
   retained: an identical later dispatch recomputes. The failing unit
   holds until owner b has joined it, so the sharing is the same with
   workers racing the dispatches as without. *)
let test_failure_isolated_never_cached () =
  List.iter
    (fun workers ->
      let q = Sampled.queue ~workers () in
      let got = ref [] and gm = Mutex.create () in
      let deliver owner i (e : Sampled.window_entry) =
        Mutex.protect gm (fun () ->
            got := ((owner, i), Result.is_ok e.Sampled.e_result) :: !got)
      in
      let find owner i =
        Mutex.protect gm (fun () -> List.assoc (owner, i) !got)
      in
      let joined = Atomic.make false in
      let dispatch owner ~key ~exec i =
        Executor.dispatch q ~owner ~key ~exec ~deliver:(deliver owner i)
          ~stopped:never_stopped
      in
      dispatch "a" ~key:"boom" 0 ~exec:(fun () ->
          while not (Atomic.get joined) do
            Domain.cpu_relax ()
          done;
          failwith "window exploded");
      (* Owner b shares the failing unit and also owns a healthy one. *)
      dispatch "b" ~key:"boom" 5 ~exec:(fun () ->
          Alcotest.fail "shared unit must not re-execute");
      Atomic.set joined true;
      dispatch "b" ~key:"fine" 6 ~exec:(fun () -> entry_ok (30, 10));
      Executor.drain q ~owner:"a";
      Executor.drain q ~owner:"b";
      let label s = Printf.sprintf "%s at %d workers" s workers in
      check Alcotest.bool (label "owner a window errored") false (find "a" 0);
      check Alcotest.bool (label "owner b shared window errored") false
        (find "b" 5);
      check Alcotest.bool (label "owner b healthy window fine") true
        (find "b" 6);
      check Alcotest.int (label "failure counted once") 1 (Executor.failed q);
      check Alcotest.int (label "two executions") 2 (Executor.executed q);
      check Alcotest.int (label "b's boom dispatch was shared") 1
        (Executor.shared_hits q);
      (* Dropped, not cached: the same key recomputes. *)
      dispatch "c" ~key:"boom" 0 ~exec:(fun () -> entry_ok (40, 10));
      Executor.drain q ~owner:"c";
      check Alcotest.bool (label "failed unit recomputed") true (find "c" 0);
      check Alcotest.int (label "recompute executed") 3 (Executor.executed q);
      (* A finished (successful) unit IS shared with later owners. *)
      dispatch "d" ~key:"fine" 9 ~exec:(fun () ->
          Alcotest.fail "finished unit must not re-execute");
      Executor.drain q ~owner:"d";
      check Alcotest.bool (label "finished unit shared") true (find "d" 9);
      check Alcotest.int (label "no new execution") 3 (Executor.executed q);
      Executor.shutdown q)
    worker_counts

(* A unit whose function raises reaches its owner as the queue's error
   value; no worker dies of it (shutdown joins every one, and a dead
   domain's join would re-raise), and the queue keeps serving. *)
let test_raising_unit_delivered_as_error () =
  List.iter
    (fun workers ->
      let q =
        Executor.create ~workers
          ~error:(fun e -> Error (Printexc.to_string e))
          ~is_error:Result.is_error ()
      in
      let got = ref [] and gm = Mutex.create () in
      let dispatch key exec =
        Executor.dispatch q ~owner:"o" ~key ~exec
          ~deliver:(fun v ->
            Mutex.protect gm (fun () -> got := (key, v) :: !got))
          ~stopped:never_stopped
      in
      for i = 1 to 4 do
        dispatch (Printf.sprintf "raise-%d" i) (fun () ->
            failwith "unit exploded")
      done;
      Executor.drain q ~owner:"o";
      let label s = Printf.sprintf "%s at %d workers" s workers in
      List.iter
        (fun (key, v) ->
          match v with
          | Error m ->
            check Alcotest.bool (label (key ^ " error names the exception"))
              true (contains m "unit exploded")
          | Ok () -> Alcotest.fail (label (key ^ " reported success")))
        !got;
      check Alcotest.int (label "every raising unit delivered") 4
        (List.length !got);
      got := [];
      dispatch "later" (fun () -> Ok ());
      Executor.drain q ~owner:"o";
      check Alcotest.bool (label "later unit served") true
        (!got = [ ("later", Ok ()) ]);
      check Alcotest.int (label "failures counted") 4 (Executor.failed q);
      Executor.shutdown q)
    worker_counts

(* Owners on three domains dispatch overlapping keys at once, each far
   more than the in-flight bound (4 at these worker counts), so every
   owner keeps blocking and helping. Every
   dispatch is delivered exactly once with its key's value, every drain
   returns, and each key executes once however the races fall. *)
let test_concurrent_owners_share_units () =
  List.iter
    (fun workers ->
      let q =
        Executor.create ~workers ~error:(fun _ -> -1)
          ~is_error:(fun v -> v < 0) ()
      in
      let owner o () =
        let key i = ((i * 7) + o) mod 20 in
        let got = Array.make 50 (-1) and deliveries = Atomic.make 0 in
        for i = 0 to 49 do
          Executor.dispatch q ~owner:(string_of_int o)
            ~key:(string_of_int (key i))
            ~exec:(fun () -> key i)
            ~deliver:(fun v ->
              got.(i) <- v;
              Atomic.incr deliveries)
            ~stopped:never_stopped
        done;
        Executor.drain q ~owner:(string_of_int o);
        Atomic.get deliveries = 50
        && Array.for_all Fun.id (Array.mapi (fun i v -> v = key i) got)
      in
      let ds = List.init 3 (fun o -> Domain.spawn (owner o)) in
      let label s = Printf.sprintf "%s at %d workers" s workers in
      List.iteri
        (fun o d ->
          check Alcotest.bool
            (label (Printf.sprintf "owner %d got every value once" o))
            true (Domain.join d))
        ds;
      check Alcotest.int (label "each key executed once") 20
        (Executor.executed q);
      check Alcotest.int (label "the other dispatches shared") 130
        (Executor.shared_hits q);
      check Alcotest.bool (label "nothing left in flight") true
        (Executor.inflight_by_owner q = []);
      Executor.shutdown q)
    worker_counts

(* --------------------------------------------------------- backends *)

let test_backend_reports () =
  let prog = Lazy.force alu_prog in
  (match (Backend.functional prog).Backend.run () with
  | Ok (Backend.Functional { instructions }) ->
    check Alcotest.bool "functional ran" true (instructions > 0)
  | Ok _ -> Alcotest.fail "functional: wrong report kind"
  | Error e -> Alcotest.fail e);
  (match (Backend.detailed prog).Backend.run () with
  | Ok (Backend.Detailed st) ->
    check Alcotest.bool "detailed ran" true (st.Pipeline.instructions > 0)
  | Ok _ -> Alcotest.fail "detailed: wrong report kind"
  | Error e -> Alcotest.fail e);
  (match (Backend.warming prog).Backend.run () with
  | Ok (Backend.Warmed { instructions }) ->
    check Alcotest.bool "warming ran" true (instructions > 0)
  | Ok _ -> Alcotest.fail "warming: wrong report kind"
  | Error e -> Alcotest.fail e);
  match
    (Backend.sampled ~plan:(plan_exn "200:100:2000:7") prog).Backend.run ()
  with
  | Ok (Backend.Sampled s) ->
    check Alcotest.bool "sampled measured windows" true
      (s.Sampled.sp_windows > 0)
  | Ok _ -> Alcotest.fail "sampled: wrong report kind"
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "bor_exec"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "restore matches capture" `Quick
            test_restore_matches_capture;
          Alcotest.test_case "resumed run deterministic" `Quick
            test_resumed_run_deterministic;
          Alcotest.test_case "serialized round trip" `Quick
            test_serialized_roundtrip;
          Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
          Alcotest.test_case "rebuilds the block cache on resume" `Quick
            test_checkpoint_rebuilds_block_cache;
          Alcotest.test_case "rejects wrong program" `Quick
            test_rejects_wrong_program;
        ] );
      ( "sampled",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "raising window: same error on every executor"
            `Quick test_raising_window_same_error_everywhere;
          Alcotest.test_case "requires fresh pipeline" `Quick
            test_sampled_window_checkpoints_fresh_pipeline_only;
        ] );
      ( "executor",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "map propagates first failure" `Quick
            test_map_propagates_first_failure;
          Alcotest.test_case "map init per domain" `Quick
            test_map_runs_init_per_domain;
          Alcotest.test_case "failure isolated, never cached" `Quick
            test_failure_isolated_never_cached;
          Alcotest.test_case "raising unit delivered as error" `Quick
            test_raising_unit_delivered_as_error;
          Alcotest.test_case "concurrent owners share units" `Quick
            test_concurrent_owners_share_units;
        ] );
      ( "backend",
        [ Alcotest.test_case "report kinds" `Quick test_backend_reports ] );
    ]
