(* repro: the full reproduction — every experiment of
   [Harness.Suite.all ()] through [Suite.run_all_timed ~jobs:1], then the
   five-scheme [Harness.Matrix.run ~jobs:1] — under the engine and
   chaining defaults the experiments CLI uses. Its inputs are the
   paper's fixed programs, so the seed does not apply. *)

(* Set-up is tens of microseconds, so each sample times a batch of
   set-ups and divides. It leaves no state behind, so one sample is
   taken before the pass and one after each experiment and after the
   matrix: their median spans the run, as [wall_s] does, instead of the
   host's speed in its first second. The host probe runs beside each
   sample. *)
let setup_batch = 1000

(* --- the reference ----------------------------------------------------------- *)

(* One line per checked output: "<experiment> <md5 of the rendered
   report>", then "matrix <md5>" and one "total <scheme> <cycles>" per
   matrix scheme. *)
let render report = Format.asprintf "%a" Harness.Report.pp report

let digest_lines ~reports ~matrix =
  List.map
    (fun (name, report) -> Printf.sprintf "%s %s" name (Digest.to_hex (Digest.string (render report))))
    reports
  @
  match matrix with
  | None -> []
  | Some (report, totals) ->
    Printf.sprintf "matrix %s" (Digest.to_hex (Digest.string (render report)))
    :: List.map
         (fun (t : Harness.Matrix.totals) ->
           Printf.sprintf "total %s %d" t.Harness.Matrix.t_scheme
             t.Harness.Matrix.t_cycles)
         totals

let reference_lines text =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

(* Mismatches between [lines] and the reference, keyed on each line's
   leading words; a reference line with no counterpart is a mismatch. *)
let compare_lines ~reference lines =
  let key l =
    match String.split_on_char ' ' l with
    | "total" :: scheme :: _ -> "total " ^ scheme
    | k :: _ -> k
    | [] -> l
  in
  List.filter_map
    (fun ref_line ->
      match List.find_opt (fun l -> key l = key ref_line) lines with
      | Some l when l = ref_line -> None
      | Some l -> Some (Printf.sprintf "%s: got %S, expected %S" (key ref_line) l ref_line)
      | None -> Some (Printf.sprintf "%s: missing" (key ref_line)))
    reference

(* --- set-up ----------------------------------------------------------------- *)

(* Building the experiment list and the matrix's workload sources. *)
let set_up () =
  let exps = Harness.Suite.all () in
  let works = Harness.Matrix.workloads ~quick:false in
  (exps, works)

(* --- the traced replay -------------------------------------------------------- *)

(* [Matrix.run]'s cells — [Core.exec] of every workload under every
   scheme — through the layer functions. Returns cycles per scheme. *)
let traced_matrix r a works =
  let cycles = Hashtbl.create 8 in
  List.iteri
    (fun wi (w : Harness.Matrix.workload) ->
      List.iteri
        (fun si (tag, backend) ->
          Span.set_op r ((wi * 100) + si);
          Span.with_span r ~tag "repro.cell" (fun () ->
              let compiled = Layers.compile r a ~tag backend w.Harness.Matrix.w_source in
              let run = Layers.finish r a ~tag (Layers.start r a ~tag compiled) in
              Hashtbl.replace cycles tag
                (run.Core.cycles
                 + Option.value (Hashtbl.find_opt cycles tag) ~default:0)))
        Harness.Matrix.schemes)
    works;
  cycles

(* The per-experiment times of [run_all_timed]: Table 8's warm and
   request jobs ("table8:warm:...", "table8:request:...") sum under
   "table8". *)
let experiment_seconds timings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (t : Harness.Suite.timing) ->
      let name =
        match String.index_opt t.Harness.Suite.job ':' with
        | Some i -> String.sub t.Harness.Suite.job 0 i
        | None -> t.Harness.Suite.job
      in
      Hashtbl.replace tbl name
        (t.Harness.Suite.seconds +. Option.value (Hashtbl.find_opt tbl name) ~default:0.))
    timings;
  tbl

let experiment_names = List.map (fun (e : Harness.Suite.experiment) -> e.Harness.Suite.name) (Harness.Suite.all ())

let run ~reference ~seed:_ ~seconds:_ ~trace =
  let setup_times = ref [] and host = Host.create () in
  let setup_sample () =
    Host.sample host;
    let (), dt =
      Common.timed (fun () ->
          for _ = 1 to setup_batch do ignore (Sys.opaque_identity (set_up ())) done)
    in
    setup_times := (dt /. float_of_int setup_batch) :: !setup_times
  in
  setup_sample ();
  let exps, works = set_up () in
  let tally = Common.tally () in
  (* [run_all_timed] one experiment at a time: at [jobs = 1] it runs the
     same jobs in the same order within each experiment. *)
  let timed_step what f =
    let v, secs, counts =
      Common.window (fun () ->
          match f () with
          | v -> Some v
          | exception e ->
            Common.fail tally (what ^ " raised " ^ Printexc.to_string e);
            None)
    in
    setup_sample ();
    (v, secs, counts)
  in
  let suite =
    List.map
      (fun (e : Harness.Suite.experiment) ->
        ( e.Harness.Suite.name,
          timed_step e.Harness.Suite.name (fun () ->
              Harness.Suite.run_all_timed ~jobs:1 [ e ]) ))
      exps
  in
  let matrix, matrix_s, matrix_counts =
    timed_step "the matrix" (fun () -> Harness.Matrix.run ~jobs:1 ())
  in
  let setup_times = Array.of_list !setup_times in
  let wall = List.fold_left (fun acc (_, (_, secs, _)) -> acc +. secs) matrix_s suite in
  let counts = Common.sum_all (matrix_counts :: List.map (fun (_, (_, _, c)) -> c) suite) in
  let reports =
    List.filter_map
      (fun (name, (v, _, _)) ->
        match v with Some ([ report ], _) -> Some (name, report) | _ -> None)
      suite
  in
  let lines = digest_lines ~reports ~matrix in
  let reference = reference_lines reference in
  (* One attempt per experiment and one for the matrix. *)
  List.iter (fun _ -> Common.attempt tally) exps;
  Common.attempt tally;
  List.iter (Common.fail tally) (compare_lines ~reference lines);
  let peak = Common.peak_heap_mb () in
  (* The operation a user waits for is the whole reproduction: one per
     run, so its latency percentiles are the pass time. The experiments
     are heterogeneous, so percentiles over them would each time a single
     sub-second experiment and measure the host's momentary speed; the
     per-experiment times are the harness layer's metrics instead. *)
  let timings =
    List.concat_map (fun (_, (v, _, _)) -> match v with Some (_, t) -> t | None -> []) suite
  in
  let op_ms = [| wall *. 1e3 |] in
  let s = Stats.summarize op_ms in
  let end_to_end, raw =
    Common.end_to_end ~scale:(Host.scale host) ~wall ~ops:(Array.length op_ms)
      ~p50_ms:s.Stats.p50 ~p99_ms:s.Stats.p99 ~setup_s:(Stats.median setup_times)
      ~peak_mb:peak
  in
  let per_layer, spans =
    if not trace then ([], [])
    else begin
      let r = Span.create () and a = Layers.acc () in
      let cycles, traced_s = Common.timed (fun () -> traced_matrix r a works) in
      (match matrix with
       | Some (_, totals) ->
         List.iter
           (fun (t : Harness.Matrix.totals) ->
             let got = Option.value (Hashtbl.find_opt cycles t.Harness.Matrix.t_scheme) ~default:(-1) in
             if got <> t.Harness.Matrix.t_cycles then
               Common.fail tally
                 (Printf.sprintf "traced matrix: %s ran %d cycles, Matrix.run %d"
                    t.Harness.Matrix.t_scheme got t.Harness.Matrix.t_cycles))
           totals
       | None -> ());
      let spans = Span.spans r in
      let totals = Span.totals spans in
      let covered = Span.child_coverage ~root:"repro.cell" spans in
      let per_exp = experiment_seconds timings in
      ( Layers.pipeline_metrics totals a
        @ Common.counter_metrics counts
        @ List.map
            (fun name ->
              Common.metric ("harness." ^ name ^ "_s") "s"
                (Option.value (Hashtbl.find_opt per_exp name) ~default:0.))
            experiment_names
        @ [ Common.metric "harness.matrix_s" "s" matrix_s;
            Common.metric "trace.overhead_pct" "%"
              (100. *. (traced_s -. matrix_s) /. matrix_s);
            Common.metric "trace.coverage_pct" "%"
              (100. *. covered *. 1e-9 /. matrix_s) ],
        spans )
    end
  in
  {
    Common.attempted = tally.Common.t_attempted;
    failed = tally.Common.t_failed;
    failures = Common.failures tally;
    end_to_end;
    per_layer;
    spans;
    extra =
      [ ("operations", Trace.Json.Int (Array.length op_ms));
        ("raw", Common.metrics_json raw);
        ("host", Host.to_json host);
        ("latency", Stats.to_json s);
        ("digests", Trace.Json.List (List.map (fun l -> Trace.Json.Str l) lines));
        ("engine", Trace.Json.Str (Core.engine_name (Core.default_engine ())));
        ("chaining", Trace.Json.Bool (Core.chaining_enabled ())) ];
  }
