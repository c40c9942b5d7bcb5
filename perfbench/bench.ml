(* Workload runner of the repository benchmark (see perfbench/NOTES.md).

     bench.exe --workload detail|sampled|serve|opt --seed N --seconds S
       --trace 0|1 --out RAW.jsonl --bor BOR.exe [--smoke]

   Runs one workload as fixed work and writes raw records, one JSON
   object per line, to RAW.jsonl: one per set-up repetition, one per
   job (with the job's own correctness verdict), layer counters, and in
   traced runs the layer probes' records and one per span. It computes no metric — perfbench/run.py
   does that from the raw file, so metrics can be recomputed from a kept
   capture without re-running.

   [--seconds] sizes the work: each workload does a whole number of
   passes over its fixed job list, the count chosen from the seconds
   and the pass's nominal cost on the reference host (NOTES.md). The
   work never depends on how fast the host runs. The seed only orders
   the jobs and picks the sampling phase and the search seeds. *)

module Pipeline = Bor_uarch.Pipeline
module Plan = Bor_uarch.Sampling_plan
module Backend = Bor_exec.Backend
module Sampled = Bor_exec.Sampled
module Checkpoint = Bor_exec.Checkpoint
module Json = Bor_telemetry.Json
module Client = Bor_serve.Client
module Job = Bor_serve.Job
module Prng = Bor_util.Prng

let now = Unix.gettimeofday

(* ------------------------------------------------------------ records *)

let out = ref stdout
let out_mu = Mutex.create ()

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

type value = S of string | I of int | F of float | B of bool

let record typ fields =
  let field (k, v) =
    jstr k ^ ": "
    ^
    match v with
    | S s -> jstr s
    | I i -> string_of_int i
    | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
    | F _ -> "null"
    | B b -> string_of_bool b
  in
  let line =
    "{" ^ String.concat ", " (List.map field (("type", S typ) :: fields)) ^ "}\n"
  in
  Mutex.protect out_mu (fun () -> output_string !out line)

let stat name v = record "stat" [ ("name", S name); ("value", v) ]

(* ------------------------------------------------------------ tracing *)

(* Spans around the benchmark's own calls into each layer: name, start,
   end, parent span and job id. Kept in memory, written when the run
   ends. With tracing off, [span] is a plain call. *)
module Trace = struct
  let on = ref false
  let mu = Mutex.create ()
  let next_id = ref 0
  let spans = ref []
  let stacks : (int * int, int list) Hashtbl.t = Hashtbl.create 8

  let span ~job name f =
    if not !on then f ()
    else begin
      let tid = ((Domain.self () :> int), Thread.id (Thread.self ())) in
      let id, parent =
        Mutex.protect mu (fun () ->
            incr next_id;
            let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
            Hashtbl.replace stacks tid (!next_id :: st);
            (!next_id, match st with p :: _ -> p | [] -> 0))
      in
      let t0 = now () in
      let finish () =
        let t1 = now () in
        Mutex.protect mu (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ());
            spans := (id, parent, name, job, t0, t1) :: !spans)
      in
      Fun.protect ~finally:finish f
    end

  (* Cost of one empty span, so the run can state its own overhead. *)
  let span_cost () =
    let saved = !spans in
    let n = 20_000 in
    let t0 = now () in
    for _ = 1 to n do
      span ~job:"calibration" "trace.calibration" ignore
    done;
    let dt = now () -. t0 in
    spans := saved;
    dt /. Float.of_int n

  let dump () =
    List.iter
      (fun (id, parent, name, job, t0, t1) ->
        record "span"
          [
            ("id", I id); ("parent", I parent); ("name", S name);
            ("job", S job); ("t0", F t0); ("t1", F t1);
          ])
      (List.rev !spans);
    stat "trace.span_cost_s" (F (span_cost ()))
end

let span = Trace.span

(* ------------------------------------------------------------ helpers *)

let alloc_words () = Gc.allocated_bytes () /. Float.of_int (Sys.word_size / 8)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  try
    let ic = open_in path in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
      | exception End_of_file -> 0
    in
    let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
    Float.of_int kb /. 1024.
  with Sys_error _ -> 0.

let shuffled rng l =
  let a = Array.of_list l in
  Prng.shuffle rng a;
  Array.to_list a

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc e -> acc + dir_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Set-up is repeated [setup_reps] times in a run and each repetition
   recorded; run.py reports the median. The first repetition runs before
   any job and its product is used. The others run between jobs, spread
   evenly over the run, so that the median samples the host over the
   whole run, as the job metrics do, and not only at its start: the
   host's speed drifts over seconds (NOTES.md, "Host noise"). *)
let setup_reps = 21

let setup_rep rep f =
  let job = Printf.sprintf "setup-%d" rep in
  let t0 = now () in
  let x = span ~job "bench.setup" (fun () -> f ~job) in
  record "setup" [ ("rep", I rep); ("s", F (now () -. t0)) ];
  x

(* Runs [run_job i j] over [jobs]. Set-up repetition [k + 1], for
   k = 1 .. reps - 1, follows job number ceil(k n / (reps - 1)) of the
   n jobs, outside every job's timed interval. Each job starts from a
   collected heap, so the peak memory is that of the largest job and
   not of the order the seed gave the jobs: without it, the detail
   workload's peak ranged from 41 to 55 MB between seeds. *)
let run_jobs ?(reps = setup_reps) setup jobs run_job =
  let n = List.length jobs and r = reps - 1 in
  let k = ref 1 in
  List.iteri
    (fun i j ->
      Gc.full_major ();
      run_job i j;
      while !k <= r && !k * n <= (i + 1) * r do
        incr k;
        ignore (setup_rep !k setup)
      done)
    jobs

let passes ~seconds ~nominal_s = max 1 (int_of_float (Float.round (seconds /. nominal_s)))

(* ------------------------------------------------------------ kernels *)

(* The nine paper kernels: the Section 5.3 microbenchmark at 200,000
   characters and the eight DaCapo stand-in applications, all
   instrumented with branch-on-random at period 64, no duplication. *)
let micro_chars = 200_000
let micro_name = Printf.sprintf "micro-%d" micro_chars

let brr64 =
  Bor_minic.Instrument.(Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))

let kernel_names ~smoke =
  if smoke then [ "antlr" ] else micro_name :: Bor_workload.Apps.all_names

let compile_kernel name =
  if name = micro_name then
    (Bor_workload.Micro.compile ~chars:micro_chars brr64).Bor_minic.Driver.program
  else (Bor_workload.Apps.compile name brr64).Bor_minic.Driver.program

(* The minic interpreter's answer for a kernel, and the predicate that
   checks a finished machine against it. *)
let answer_check name prog =
  if name = micro_name then begin
    let expected = Bor_workload.Micro.reference_checksum ~chars:micro_chars () in
    let addr = Option.get (Bor_isa.Program.find_symbol prog "checksum") in
    fun m -> Bor_sim.Memory.read_word (Bor_sim.Machine.memory m) addr = expected
  end
  else begin
    let ast = Bor_minic.Parser.parse (Bor_workload.Apps.source name) in
    Bor_minic.Typecheck.check ast;
    let expected = (Bor_minic.Interp.run ast).Bor_minic.Interp.return_value in
    fun m -> Bor_sim.Machine.reg m (Bor_isa.Reg.a 0) = expected
  end

let setup_kernels ~smoke ~job =
  List.map
    (fun n -> (n, span ~job "minic.compile" (fun () -> compile_kernel n)))
    (kernel_names ~smoke)

let job_record ~id ~kind ~name ~t0 ~t1 ~ok ~note fields =
  record "job"
    ([
       ("id", S id); ("kind", S kind); ("name", S name); ("t0", F t0);
       ("t1", F t1); ("ok", B ok); ("note", S note);
     ]
    @ fields)

(* One job list: [passes] passes over the kernels, in one seeded order. *)
let job_list ~seed ~passes kernels =
  let order = shuffled (Prng.create ~seed) kernels in
  List.concat_map (fun p -> List.map (fun k -> (p, k)) order) (List.init passes Fun.id)

(* ------------------------------------------------------------- detail *)

(* Nominal seconds of one full-detail pass over the nine kernels. *)
let detail_pass_s = 12.

let detail ~seed ~seconds ~smoke =
  let progs = setup_rep 1 (setup_kernels ~smoke) in
  let checks =
    span ~job:"checks" "bench.answers" (fun () ->
        List.map (fun (n, p) -> (n, answer_check n p)) progs)
  in
  let passes = if smoke then 1 else passes ~seconds ~nominal_s:detail_pass_s in
  run_jobs (setup_kernels ~smoke) (job_list ~seed ~passes progs)
    (fun i (pass, (name, prog)) ->
      let id = Printf.sprintf "detail-%d" i in
      let a0 = alloc_words () in
      let t0 = now () in
      let p, r =
        span ~job:id "bench.job" (fun () ->
            let p = span ~job:id "uarch.create" (fun () -> Pipeline.create prog) in
            (p, span ~job:id "uarch.run" (fun () -> Pipeline.run p)))
      in
      let t1 = now () in
      let alloc = alloc_words () -. a0 in
      let oracle = Pipeline.oracle p in
      let instructions = (Bor_sim.Machine.stats oracle).Bor_sim.Machine.instructions in
      let ok, note =
        match r with
        | Error e -> (false, e)
        | Ok _ when not ((List.assoc name checks) oracle) ->
          (false, "architectural result differs from the interpreter")
        | Ok _ -> (true, "")
      in
      job_record ~id ~kind:"detail" ~name ~t0 ~t1 ~ok ~note
        [
          ("pass", I pass); ("instructions", I instructions);
          ("cycles", I (Pipeline.cycle p)); ("alloc_words", F alloc);
        ])

(* ------------------------------------------------------------ sampled *)

let sampled_pass_s = 2.2

(* The EXPERIMENTS.md SMARTS plan (2000:1000:200000); [phase] picks
   the window phase. *)
let sampled_plan ~phase ~period =
  match Plan.make ~seed:(1 + (Hashtbl.hash phase land 0xFFFF)) ~warmup:2000 ~window:1000 ~period () with
  | Ok p -> p
  | Error e -> failwith e

(* A window runner that executes inline, exactly as the built-in
   [--domains 1] runner does, but times every window and, given [keep],
   keeps every 4th checkpoint for the restore probe. *)
let timing_runner ~job ?keep (ctx : Sampled.exec_ctx) : Sampled.runner =
  {
    Sampled.r_dispatch =
      (fun ~index ~boundary:_ ck ->
        (match keep with
        | Some keep when index mod 4 = 0 -> keep := ck :: !keep
        | _ -> ());
        let e = span ~job "exec.window" (fun () -> ctx.Sampled.xc_window ck) in
        ctx.Sampled.xc_deliver index { Sampled.e_result = e; e_tel = None });
    r_drain = ignore;
  }

let sampled ~seed ~seconds ~smoke ~traced =
  let progs = setup_rep 1 (setup_kernels ~smoke) in
  let checks =
    span ~job:"checks" "bench.answers" (fun () ->
        List.map (fun (n, p) -> (n, answer_check n p)) progs)
  in
  let passes = if smoke then 1 else passes ~seconds ~nominal_s:sampled_pass_s in
  (* Each pass samples at its own phase, from a fixed set that the seed
     only permutes over the passes: [cpi_err_pct] then averages the same
     (kernel, phase) pairs at every seed and repeats exactly. *)
  let phases = Array.init passes Fun.id in
  Prng.shuffle (Prng.create ~seed) phases;
  let plans =
    Array.mapi
      (fun pass phase ->
        let plan = sampled_plan ~phase ~period:200_000 in
        record "plan" [ ("pass", I pass); ("plan", S (Plan.to_string plan)) ];
        plan)
      phases
  in
  run_jobs (setup_kernels ~smoke) (job_list ~seed ~passes progs)
    (fun i (pass, (name, prog)) ->
      let id = Printf.sprintf "sampled-%d" i in
      let runner = if traced then Some (fun ctx -> timing_runner ~job:id ctx) else None in
      let a0 = alloc_words () in
      let t0 = now () in
      let b, r =
        span ~job:id "bench.job" (fun () ->
            let b = Backend.sampled ~plan:plans.(pass) ~domains:1 ?runner prog in
            (b, span ~job:id "exec.sampled_run" b.Backend.run))
      in
      let t1 = now () in
      let alloc = alloc_words () -. a0 in
      let fallback, block_instr =
        match Option.bind b.Backend.pipeline Pipeline.block_cache with
        | Some bc ->
          let s = Bor_uarch.Block.stats bc in
          (s.Bor_uarch.Block.fallback_steps, s.Bor_uarch.Block.block_instructions)
        | None -> (0, 0)
      in
      let fields, ok, note =
        match r with
        | Error e -> ([], false, e)
        | Ok (Backend.Sampled st) ->
          let ok = (List.assoc name checks) (b.Backend.machine ()) in
          ( [
              ("instructions", I st.Sampled.sp_instructions);
              ("cycles_estimate", F st.Sampled.sp_cycles_estimate);
              ("windows", I st.Sampled.sp_windows);
            ],
            ok,
            if ok then "" else "architectural result differs from the interpreter" )
        | Ok _ -> ([], false, "not a sampled report")
      in
      job_record ~id ~kind:"sampled" ~name ~t0 ~t1 ~ok ~note
        ([
           ("pass", I pass); ("alloc_words", F alloc);
           ("block_fallback_steps", I fallback);
           ("block_instructions", I block_instr);
         ]
        @ fields))

(* ---------------------------------------------------------------- opt *)

let opt_dir = "test/opt_corpus"

let opt_targets ~smoke =
  let files =
    Sys.readdir opt_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".s")
    |> List.sort compare
  in
  if smoke then [ List.hd files ] else files

let opt_params ~seed ~smoke =
  {
    Bor_opt.Search.default_params with
    p_seed = seed;
    p_rounds = (if smoke then 1 else 3);
    p_iters = (if smoke then 20 else 100);
    p_chains = 2;
    p_domains = 2;
  }

let opt_pass_s = 22.

let opt ~seed ~seconds ~smoke =
  (* Set-up: assemble every target and build its cost evaluator (the
     target's vectors and its own oracle cycles). *)
  let setup ~job =
    List.map
      (fun f ->
        let src = Bor_isa.Toolchain.read_file (Filename.concat opt_dir f) in
        let prog = span ~job "isa.assemble" (fun () -> Bor_isa.Asm.assemble_exn src) in
        let cost =
          span ~job "opt.cost_create" (fun () ->
              match Bor_opt.Cost.create prog with
              | Ok c -> c
              | Error e -> failwith (f ^ ": " ^ e))
        in
        (f, prog, cost))
      (opt_targets ~smoke)
  in
  let targets = setup_rep 1 setup in
  let passes = if smoke then 1 else passes ~seconds ~nominal_s:opt_pass_s in
  let rng = Prng.create ~seed in
  let jobs =
    List.concat_map
      (fun pass ->
        List.map
          (fun (f, prog, _) -> (pass, f, prog, 1 + Prng.int rng 1_000_000))
          (shuffled rng targets))
      (List.init passes Fun.id)
  in
  run_jobs setup jobs
    (fun i (pass, name, prog, search_seed) ->
      let id = Printf.sprintf "opt-%d" i in
      let t0 = now () in
      let last = ref t0 in
      let r =
        span ~job:id "bench.job" (fun () ->
            span ~job:id "opt.search" (fun () ->
                Bor_opt.Search.run
                  ~progress:(fun ~round:_ ~best:_ -> last := now ())
                  (opt_params ~seed:search_seed ~smoke)
                  prog))
      in
      let t1 = now () in
      match r with
      | Error e ->
        job_record ~id ~kind:"opt" ~name ~t0 ~t1 ~ok:false ~note:e
          [ ("pass", I pass); ("search_seed", I search_seed) ]
      | Ok r ->
        let k = r.Bor_opt.Search.r_counters in
        let open Bor_opt.Search in
        job_record ~id ~kind:"opt" ~name ~t0 ~t1 ~ok:r.r_verified
          ~note:(if r.r_verified then "" else "winner not verified: " ^ r.r_note)
          [
            ("pass", I pass); ("search_seed", I search_seed);
            ("search_s", F (!last -. t0)); ("verify_s", F (t1 -. !last));
            ("best_cost", I r.r_best_cost); ("target_cost", I r.r_target_cost);
            ("proposals", I k.n_proposals); ("inapplicable", I k.n_inapplicable);
            ("acceptances", I k.n_acceptances);
            ("filter_rejects", I k.n_filter_rejects);
            ("oracle_evals", I k.n_oracle_evals);
          ])

(* -------------------------------------------------------------- serve *)

(* Programs and request variants of the serve mix. The sampled
   variants of one program share its plan, so they share window work
   units ([serve.windows.shared_shard_hits]). *)
type variant = {
  v_name : string;
  v_spec : Job.spec;
  v_request : Json.t;
}

let serve_variants ~smoke =
  (* A fixed phase: with [--ci-target] the phase decides how many
     windows a job runs, so a seeded phase would change the work. *)
  let plan = sampled_plan ~phase:0 ~period:100_000 in
  let plan_s = Plan.to_string plan in
  let sampled name prog suffix ?rank_bands ?ci_target () =
    {
      v_name = name ^ "/" ^ suffix;
      v_spec = Job.make ~plan ?rank_bands ?ci_target ~backend:"sampled" prog;
      v_request =
        Client.submit_request ~plan:plan_s ?rank_bands ?ci_target ~backend:"sampled" prog;
    }
  in
  let sampled_variants name prog =
    [
      sampled name prog "fixed" ();
      sampled name prog "rank4" ~rank_bands:4 ();
      sampled name prog "ci5" ~ci_target:5.0 ();
    ]
  in
  let detailed name prog =
    {
      v_name = name ^ "/detailed";
      v_spec = Job.make ~backend:"detailed" prog;
      v_request = Client.submit_request ~backend:"detailed" prog;
    }
  in
  fun ~job ->
    let compile name f = (name, span ~job "minic.compile" f) in
    let micro chars =
      compile (Printf.sprintf "micro-%d" chars) (fun () ->
          (Bor_workload.Micro.compile ~chars brr64).Bor_minic.Driver.program)
    in
    let app name =
      compile name (fun () -> (Bor_workload.Apps.compile name brr64).Bor_minic.Driver.program)
    in
    if smoke then
      let n, p = micro 20_000 in
      ([ sampled n p "fixed" (); detailed n p ], [])
    else begin
      let progs = [ app "jython"; micro 40_000 ] in
      let cold =
        List.concat_map (fun (n, p) -> sampled_variants n p @ [ detailed n p ]) progs
      in
      (* Join keys: submitted by both clients at once, so one request
         queues the job and the other joins it in flight. *)
      let jn, jp = micro 30_000 in
      let joins =
        [ detailed jn jp; sampled "jython" (List.assoc "jython" progs) "ci2" ~ci_target:2.0 () ]
      in
      (cold, joins)
    end

let json_str name j =
  match Json.member name j with Some (Json.String s) -> Some s | _ -> None

let json_int name j =
  match Json.member name j with Some (Json.Int i) -> i | _ -> 0

let request_ok ~socket req =
  match Client.request ~socket req with
  | Ok resp when Json.member "ok" resp = Some (Json.Bool true) -> Ok resp
  | Ok resp -> Error (Option.value ~default:"refused" (json_str "error" resp))
  | Error e -> Error e

let start_server ~bor ~socket ~store =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process bor
      [| bor; "serve"; "--socket"; socket; "--domains"; "2"; "--store"; store |]
      null null null
  in
  Unix.close null;
  let deadline = now () +. 60. in
  let rec wait () =
    match request_ok ~socket Client.stats_request with
    | Ok _ -> pid
    | Error _ when now () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | Error e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith ("bor serve did not come up: " ^ e)
  in
  wait ()

let live_servers = ref []

let stop_server ~socket pid =
  let hwm = vm_hwm_mb (string_of_int pid) in
  ignore (request_ok ~socket Client.shutdown_request);
  ignore (Unix.waitpid [] pid);
  live_servers := List.filter (( <> ) pid) !live_servers;
  hwm

let with_server ?(job = "server") ~bor ~socket ~store f =
  let pid = span ~job "serve.start" (fun () -> start_server ~bor ~socket ~store) in
  live_servers := pid :: !live_servers;
  let stop () = span ~job "serve.stop" (fun () -> stop_server ~socket pid) in
  match f () with
  | x -> (x, stop ())
  | exception e ->
    ignore (stop ());
    raise e

(* Every server this process started is stopped before it exits, even
   on an error path. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers)

type answer = {
  a_id : string;
  a_variant : variant;
  a_phase : string;
  a_round : int;
  a_t0 : float;
  a_t1 : float;
  a_t2 : float;
  a_disposition : string;
  a_source : string;
  a_payload : (string, string) result;
}

(* One closed-loop request: submit, then block on the result, as
   [bor submit --wait] does. *)
let send ~socket ~id ~phase ~round v =
  span ~job:id "bench.request" (fun () ->
      let t0 = now () in
      let sub = span ~job:id "serve.submit" (fun () -> request_ok ~socket v.v_request) in
      let t1 = now () in
      let disposition, res =
        match sub with
        | Error e -> ("error", Error e)
        | Ok resp -> (
          let d = Option.value ~default:"?" (json_str "disposition" resp) in
          match json_str "key" resp with
          | None -> (d, Error "submit reply without a key")
          | Some key ->
            ( d,
              span ~job:id "serve.wait" (fun () ->
                  request_ok ~socket (Client.result_request ~wait:true key)) ))
      in
      let t2 = now () in
      let source, payload =
        match res with
        | Error e -> ("error", Error e)
        | Ok resp -> (
          ( Option.value ~default:"?" (json_str "source" resp),
            match json_str "payload" resp with
            | Some p -> Ok p
            | None -> Error "result reply without a payload" ))
      in
      {
        a_id = id; a_variant = v; a_phase = phase; a_round = round; a_t0 = t0;
        a_t1 = t1; a_t2 = t2; a_disposition = disposition; a_source = source;
        a_payload = payload;
      })

(* Two clients draining one shared request list. Each runs in a domain
   of its own, as two [bor submit] processes would: threads of one
   domain share its runtime lock, so one client's request and reply
   handling would hold up the other's. *)
let two_clients ~socket ~phase ~round ~next_id items =
  let q = Queue.of_seq (List.to_seq items) in
  let mu = Mutex.create () in
  let answers = ref [] in
  let client () =
    let rec loop () =
      match Mutex.protect mu (fun () -> Queue.take_opt q) with
      | None -> ()
      | Some v ->
        let id = Mutex.protect mu next_id in
        let a = send ~socket ~id ~phase ~round v in
        Mutex.protect mu (fun () -> answers := a :: !answers);
        loop ()
    in
    loop ()
  in
  let d = Domain.spawn client in
  client ();
  Domain.join d;
  !answers

let serve ~seed ~seconds ~smoke ~bor =
  let run_dir = Filename.concat "perfbench" "_runs" in
  let tag = string_of_int (Unix.getpid ()) in
  let socket = Filename.concat run_dir ("serve-" ^ tag ^ ".sock") in
  let store_of name = Filename.concat run_dir ("store-" ^ tag ^ "-" ^ name) in
  let make_variants = serve_variants ~smoke in
  let setup ~job =
    let vs = make_variants ~job in
    let store = store_of "setup" in
    ignore (with_server ~bor ~socket ~store ignore);
    rm_rf store;
    vs
  in
  let cold, joins = setup_rep 1 setup in
  let rounds = if smoke then 1 else passes ~seconds ~nominal_s:6. in
  let rng = Prng.create ~seed in
  let counter = ref 0 in
  let next_id () =
    incr counter;
    Printf.sprintf "req-%d" !counter
  in
  let answers = ref [] in
  let add l = answers := l @ !answers in
  let last_store = ref "" in
  (* Serve's set-up starts a server, about 15 times longer than the
     others' set-up: 7 repetitions give a steady median and keep the run
     short. *)
  run_jobs ~reps:7 setup (List.init rounds succ) (fun _ round ->
    let store = store_of (string_of_int round) in
    rm_rf store;
    let (), hwm1 =
      with_server ~bor ~socket ~store (fun () ->
          (* Cold and join requests go in a fixed order: the order
             decides which request executes a shared window unit and
             which one reuses it. The seed orders the reads. *)
          add (two_clients ~socket ~phase:"cold" ~round ~next_id cold);
          List.iter
            (fun v ->
              add (two_clients ~socket ~phase:"join" ~round ~next_id [ v; v ]))
            joins;
          (* Resubmissions: every key once, answered from memory. *)
          add
            (two_clients ~socket ~phase:"hit" ~round ~next_id
               (shuffled rng (cold @ joins)));
          match request_ok ~socket Client.stats_request with
          | Ok resp -> (
            match Json.member "stats" resp with
            | Some (Json.Obj fields) ->
              List.iter
                (fun (k, v) ->
                  match v with
                  | Json.Int i -> stat ("serve." ^ k) (I i)
                  | _ -> ())
                fields
            | _ -> ())
          | Error _ -> ())
    in
    (* Restart: a fresh server over the same store answers from disk. *)
    let (), hwm2 =
      with_server ~bor ~socket ~store (fun () ->
          add
            (two_clients ~socket ~phase:"restart" ~round ~next_id
               (shuffled rng (cold @ joins)));
          match request_ok ~socket Client.stats_request with
          | Ok resp -> (
            match Json.member "stats" resp with
            | Some s ->
              stat "restart.store_hits" (I (json_int "store_hits" s));
              stat "restart.store_misses" (I (json_int "store_misses" s))
            | None -> ())
          | Error _ -> ())
    in
    stat "serve.vm_hwm_mb" (F (Float.max hwm1 hwm2));
    if !last_store <> "" then rm_rf !last_store;
    last_store := store);
  (* Checks, outside every timed interval: each payload must equal a
     standalone Job.run of the same spec, byte for byte. *)
  let standalone = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let p =
        match span ~job:"checks" "serve.job_run" (fun () -> Job.run v.v_spec) with
        | Ok (payload, _) -> Ok payload
        | Error e -> Error e
      in
      Hashtbl.replace standalone v.v_name p)
    (cold @ joins);
  List.iter
    (fun a ->
      let ok, note =
        match (a.a_payload, Hashtbl.find standalone a.a_variant.v_name) with
        | Error e, _ -> (false, e)
        | _, Error e -> (false, "standalone run failed: " ^ e)
        | Ok p, Ok s when p = s -> (true, "")
        | Ok _, Ok _ -> (false, "payload differs from the standalone Job.run")
      in
      let windows =
        match a.a_payload with
        | Ok p -> (
          try
            match Json.member "report" (Json.of_string p) with
            | Some r -> json_int "windows" r
            | None -> 0
          with Json.Parse_error _ -> 0)
        | Error _ -> 0
      in
      job_record ~id:a.a_id ~kind:"request" ~name:a.a_variant.v_name ~t0:a.a_t0
        ~t1:a.a_t2 ~ok ~note
        [
          ("phase", S a.a_phase); ("round", I a.a_round);
          ("submit_s", F (a.a_t1 -. a.a_t0)); ("wait_s", F (a.a_t2 -. a.a_t1));
          ("disposition", S a.a_disposition); ("source", S a.a_source);
          ("windows", I windows);
          ("backend", S a.a_variant.v_spec.Job.sp_backend);
        ])
    (List.rev !answers);
  stat "store.bytes" (I (dir_bytes !last_store));
  rm_rf !last_store

(* ------------------------------------------------------- layer probes *)

(* A traced run ends with these probes, the same on every workload:
   calls into each layer's public functions on fixed inputs, each in a
   span of its own. The per-layer metrics come from them, so every
   workload reports every layer, and the workload's own spans show
   where its time went. Probes whose result can be checked are
   operations like jobs. *)
let probe_kernel = "antlr"

let layer_probes ~bor =
  let job = "probe" in
  span ~job "bench.probes" @@ fun () ->
  let run_dir = Filename.concat "perfbench" "_runs" in
  let tag = string_of_int (Unix.getpid ()) in
  (* minic: compile the probe kernel. *)
  let prog = ref (compile_kernel probe_kernel) in
  for _ = 1 to 20 do
    prog := span ~job "minic.compile" (fun () -> compile_kernel probe_kernel)
  done;
  let prog = !prog in
  let check = answer_check probe_kernel prog in
  let probe_job name ~t0 ~t1 ok fields =
    job_record ~id:("probe-" ^ name) ~kind:"probe" ~name ~t0 ~t1 ~ok
      ~note:(if ok then "" else name ^ " probe: wrong result")
      fields
  in
  (* uarch: a full-detail run and a functional-warming run. *)
  let p = Pipeline.create prog in
  let a0 = alloc_words () and t0 = now () in
  let r = span ~job "uarch.run" (fun () -> Pipeline.run p) in
  let t1 = now () in
  let instructions = (Bor_sim.Machine.stats (Pipeline.oracle p)).Bor_sim.Machine.instructions in
  probe_job "detail" ~t0 ~t1
    (Result.is_ok r && check (Pipeline.oracle p))
    [ ("instructions", I instructions); ("alloc_words", F (alloc_words () -. a0)) ];
  let p = Pipeline.create prog in
  let a0 = alloc_words () and t0 = now () in
  let n = span ~job "uarch.warm" (fun () -> Pipeline.run_warming p) in
  let t1 = now () in
  let fallback, block_instr =
    match Pipeline.block_cache p with
    | Some bc ->
      let s = Bor_uarch.Block.stats bc in
      (s.Bor_uarch.Block.fallback_steps, s.Bor_uarch.Block.block_instructions)
    | None -> (0, 0)
  in
  probe_job "warm" ~t0 ~t1 (check (Pipeline.oracle p))
    [
      ("instructions", I n); ("alloc_words", F (alloc_words () -. a0));
      ("block_fallback_steps", I fallback); ("block_instructions", I block_instr);
    ];
  (* exec: a sampled run with every window timed, then create + restore
     and serialization of every 4th window's checkpoint. *)
  let plan = sampled_plan ~phase:0 ~period:50_000 in
  let keep = ref [] in
  let runner = timing_runner ~job ~keep in
  let b = Backend.sampled ~plan ~domains:1 ~runner prog in
  let t0 = now () in
  let r = span ~job "exec.sampled_run" b.Backend.run in
  let t1 = now () in
  probe_job "sampled" ~t0 ~t1 (Result.is_ok r && check (b.Backend.machine ())) [];
  let digest = Checkpoint.program_digest prog in
  List.iter
    (fun ck ->
      (match
         span ~job "exec.restore" (fun () ->
             Checkpoint.restore ck ~program_digest:digest (Pipeline.create prog))
       with
      | Ok () -> ()
      | Error e -> failwith ("restore probe: " ^ e));
      let bytes = span ~job "exec.serialize" (fun () -> String.length (Checkpoint.to_string ck)) in
      record "probe" [ ("name", S "checkpoint"); ("bytes", I bytes) ])
    !keep;
  (* wqueue: a sampled job replayed in-process through the global window
     queue; its payload must equal a standalone Job.run. *)
  let spec = Job.make ~plan ~backend:"sampled" prog in
  let standalone = Job.run spec in
  let wq = Bor_serve.Wqueue.create () in
  let runner ctx =
    let r = Bor_serve.Wqueue.runner wq ~job ~config:spec.Job.sp_config ctx in
    {
      Sampled.r_dispatch =
        (fun ~index ~boundary ck ->
          span ~job "wqueue.dispatch" (fun () -> r.Sampled.r_dispatch ~index ~boundary ck));
      r_drain = (fun () -> span ~job "wqueue.drain" r.Sampled.r_drain);
    }
  in
  let t0 = now () in
  let replay = Job.run ~runner spec in
  let t1 = now () in
  let payload =
    match (replay, standalone) with
    | Ok (p, _), Ok (s, _) when p = s -> Some p
    | _ -> None
  in
  probe_job "wqueue" ~t0 ~t1 (payload <> None) [];
  (* store: publish the payload under 20 keys into a scratch store, then
     find each. *)
  let payload = Option.value ~default:"" payload in
  let dir = Filename.concat run_dir ("store-" ^ tag ^ "-probe") in
  rm_rf dir;
  let st = match Bor_store.Store.create dir with Ok s -> s | Error e -> failwith e in
  let keys =
    List.init 20 (fun i ->
        Bor_store.Key.make ~program:prog ~kind:(Printf.sprintf "probe%d" i) ())
  in
  let t0 = now () in
  List.iter
    (fun key ->
      match span ~job "store.put" (fun () -> Bor_store.Store.put st key payload) with
      | Ok () -> ()
      | Error e -> failwith ("store probe: " ^ e))
    keys;
  let found =
    List.for_all
      (fun key -> span ~job "store.find" (fun () -> Bor_store.Store.find st key) = Some payload)
      keys
  in
  probe_job "store" ~t0 ~t1:(now ()) found [];
  (* serve: idle stats round trips to a fresh server. *)
  let socket = Filename.concat run_dir ("serve-" ^ tag ^ "-probe.sock") in
  ignore
    (with_server ~job ~bor ~socket ~store:dir (fun () ->
         for _ = 1 to 50 do
           ignore (span ~job "serve.rtt" (fun () -> request_ok ~socket Client.stats_request))
         done));
  rm_rf dir;
  (* isa, uarch construction and the cost function, on the opt targets:
     assembly, pipeline construction, and the cost of seeded mutants. *)
  let prng = Prng.create ~seed:12345 in
  List.iter
    (fun f ->
      let src = Bor_isa.Toolchain.read_file (Filename.concat opt_dir f) in
      let target = ref (Bor_isa.Asm.assemble_exn src) in
      for _ = 1 to 20 do
        target := span ~job "isa.assemble" (fun () -> Bor_isa.Asm.assemble_exn src)
      done;
      let target = !target in
      for _ = 1 to 200 do
        ignore (span ~job "uarch.create" (fun () -> Pipeline.create target))
      done;
      match Bor_opt.Cost.create target with
      | Error e -> failwith (f ^ ": " ^ e)
      | Ok cost ->
        List.iter
          (fun m -> ignore (span ~job "cost.evaluate" (fun () -> Bor_opt.Cost.evaluate cost m)))
          (List.init 50 (fun _ -> Bor_gen.Gen.mutate prng target)))
    (opt_targets ~smoke:false)

(* --------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0
  and out_path = ref "" and bor = ref "" and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME detail|sampled|serve|opt");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S work size, in nominal seconds");
      ("--trace", Arg.Set_int trace, "0|1 record spans");
      ("--out", Arg.Set_string out_path, "FILE raw records (JSON lines)");
      ("--bor", Arg.Set_string bor, "EXE the bor binary (serve workload)");
      ("--smoke", Arg.Set smoke, " one small job per workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --out FILE";
  let traced = !trace = 1 in
  Trace.on := traced;
  (* Appends: run.py has already written the host fingerprint line. *)
  if !out_path <> "" then
    out := open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 !out_path;
  let seed = !seed and seconds = !seconds and smoke = !smoke in
  let t0 = now () in
  (match !workload with
  | "detail" -> detail ~seed ~seconds ~smoke
  | "sampled" -> sampled ~seed ~seconds ~smoke ~traced
  | "opt" -> opt ~seed ~seconds ~smoke
  | "serve" -> serve ~seed ~seconds ~smoke ~bor:!bor
  | w ->
    prerr_endline ("bench: unknown workload " ^ w);
    exit 2);
  if traced then layer_probes ~bor:!bor;
  let t1 = now () in
  record "run" [ ("t0", F t0); ("t1", F t1); ("vm_hwm_mb", F (vm_hwm_mb "self")) ];
  if traced then Trace.dump ();
  close_out !out
