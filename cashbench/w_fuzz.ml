(* fuzz: the cashfuzz check loop, one program at a time. Program [k] is
   [Fuzz.Gen.generate] on a seed drawn from the workload seed, with an
   injected overrun in every third program, checked by
   [Fuzz.Check.check] on its default fast engines (the chained block
   engine). *)

(* [Fuzz.Check.check]'s five schemes, in the order it compiles and runs
   them. *)
let schemes =
  [ ("gcc", Core.gcc); ("bcc", Core.bcc); ("cash", Core.cash);
    ("mpx", Core.mpx); ("cap", Core.cap) ]

(* Programs per second of [--seconds] on the reference host: the work
   is fixed by the run length, so [wall_s] compares equal work. *)
let programs_per_second = 450
let warmup_programs = 100
let setup_reps = 9

(* The verdict a program must get: a pass, flagged as a known miss
   exactly when its overrun is a straight-line one (cash checks loop
   references only, §3.8). [None] when it did. *)
let judge ~direct (v : Fuzz.Check.verdict) =
  match v with
  | Fuzz.Check.Fail f ->
    Some (Printf.sprintf "oracle failure on seed %d: %s" f.Fuzz.Check.f_seed
            f.Fuzz.Check.f_message)
  | Fuzz.Check.Pass { known_miss } when known_miss <> direct ->
    Some
      (Printf.sprintf "known_miss=%b on a program with direct overrun=%b"
         known_miss direct)
  | Fuzz.Check.Pass _ -> None

(* Check one program; returns whether it carries a direct overrun and
   whether the checker passed it as a known miss. *)
let check_program tally ~gseed prog =
  Common.attempt tally;
  let direct = Fuzz.Gen.oob_is_direct prog.Fuzz.Gen.oob in
  match Fuzz.Check.check ~seed:gseed prog with
  | v ->
    Option.iter (Common.fail tally) (judge ~direct v);
    (direct, match v with Fuzz.Check.Pass { known_miss } -> known_miss | _ -> false)
  | exception e ->
    Common.fail tally
      (Printf.sprintf "seed %d raised %s" gseed (Printexc.to_string e));
    (direct, false)

(* Set-up: a short sweep over a seed range disjoint from the measured
   one, which fills the domain's physical-memory recycling pool. *)
let warm_up ~seed rep =
  let t = Common.tally () in
  for k = 0 to warmup_programs - 1 do
    let gseed, prog =
      Inputs.fuzz_program ~seed ~stream:Inputs.warmup_seeds
        ((rep * warmup_programs) + k)
    in
    ignore (check_program t ~gseed prog)
  done;
  t

(* The traced replay of program [k]: generate and render, then compile
   every scheme and run it, as [Fuzz.Check.check] does. *)
let traced_program r a ~seed k =
  Span.set_op r k;
  Span.with_span r "fuzz.program" (fun () ->
      let src =
        Span.with_span r "fuzz.gen" (fun () ->
            let _, prog = Inputs.fuzz_program ~seed ~stream:Inputs.fuzz_seeds k in
            Fuzz.Gen.render prog)
      in
      let compiled =
        List.map (fun (tag, b) -> (tag, Layers.compile r a ~tag b src)) schemes
      in
      let runs =
        List.map
          (fun (tag, c) ->
            let st =
              Layers.start r a ~tag ~engine:Machine.Cpu.Block ~chain:true c
            in
            Layers.finish r a ~tag st)
          compiled
      in
      List.iter
        (fun (run : Core.run) ->
          Machine.Phys_mem.release (Osim.Process.phys run.Core.process))
        runs)

let run ~seed ~seconds ~trace =
  let n = max 1 (programs_per_second * seconds) in
  let setup_tally = Common.tally () in
  let time_setup rep =
    let t, s = Common.timed (fun () -> warm_up ~seed rep) in
    setup_tally.Common.t_failed <- setup_tally.Common.t_failed + t.Common.t_failed;
    s
  in
  (* Every timed set-up starts from an empty recycling pool. Rep 0 runs
     first, in this domain, and leaves its pool filled for the measured
     loop. The loop then runs in [setup_reps - 1] slices, and after each
     slice one more rep runs in a fresh domain, outside the timed
     windows: the set-up samples span the run, as the loop's do, instead
     of the host's speed in its first second. The host probe runs before
     the first slice and after each. *)
  let setup_times = Array.make setup_reps (time_setup 0) in
  let host = Host.create () in
  Host.sample host;
  let tally = Common.tally () in
  let lat = Array.make n 0. and chk = Array.make n 0. in
  let direct = ref 0 and known_misses = ref 0 in
  let check_range lo hi =
    for k = lo to hi - 1 do
      let t0 = Span.now_ns () in
      let gseed, prog = Inputs.fuzz_program ~seed ~stream:Inputs.fuzz_seeds k in
      let t1 = Span.now_ns () in
      let d, km = check_program tally ~gseed prog in
      if d then incr direct;
      if km then incr known_misses;
      let t2 = Span.now_ns () in
      chk.(k) <- Int64.to_float (Int64.sub t2 t1);
      lat.(k) <- Int64.to_float (Int64.sub t2 t0)
    done
  in
  let slices = setup_reps - 1 in
  let windows =
    List.init slices (fun i ->
        let (), secs, counts =
          Common.window (fun () -> check_range (i * n / slices) ((i + 1) * n / slices))
        in
        Host.sample host;
        setup_times.(i + 1) <- Common.in_fresh_domain (fun () -> time_setup (i + 1));
        (secs, counts))
  in
  let wall = List.fold_left (fun acc (secs, _) -> acc +. secs) 0. windows in
  let counts = Common.sum_all (List.map snd windows) in
  let compile_s = counts.Common.c_compile_s in
  let peak = Common.peak_heap_mb () in
  if setup_tally.Common.t_failed > 0 then
    Common.fail tally "the set-up sweep had oracle failures";
  if !known_misses <> !direct then
    Common.fail tally
      (Printf.sprintf "%d known misses for %d direct overruns" !known_misses
         !direct);
  let lat_ms = Array.map (fun ns -> ns /. 1e6) lat in
  let s = Stats.summarize lat_ms in
  let check_total = Array.fold_left ( +. ) 0. chk *. 1e-9 in
  let end_to_end, raw =
    Common.end_to_end ~scale:(Host.scale host) ~wall ~ops:n ~p50_ms:s.Stats.p50
      ~p99_ms:s.Stats.p99 ~setup_s:(Stats.median setup_times) ~peak_mb:peak
  in
  let per_layer, spans =
    if not trace then ([], [])
    else begin
      let r = Span.create () and a = Layers.acc () in
      let (), traced_wall =
        Common.timed (fun () ->
            for k = 0 to n - 1 do traced_program r a ~seed k done)
      in
      let spans = Span.spans r in
      let totals = Span.totals spans in
      let covered = Span.child_coverage ~root:"fuzz.program" spans in
      ( Layers.pipeline_metrics totals a
        @ Common.counter_metrics counts
        @ [ Common.metric "fuzz.gen_ms" "ms" (Layers.mean_ms totals "fuzz.gen");
            Common.metric "fuzz.check_ms" "ms" (Stats.mean chk /. 1e6);
            Common.metric "fuzz.compile_share" "ratio" (compile_s /. check_total);
            Common.metric "trace.overhead_pct" "%"
              (100. *. (traced_wall -. wall) /. wall);
            Common.metric "trace.coverage_pct" "%"
              (100. *. covered /. Array.fold_left ( +. ) 0. lat) ],
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
      [ ("operations", Trace.Json.Int n);
        ("raw", Common.metrics_json raw);
        ( "setup_samples_s",
          Trace.Json.List (Array.to_list (Array.map (fun x -> Trace.Json.Float x) setup_times)) );
        ("host", Host.to_json host);
        ("latency", Stats.to_json s);
        ("slice_p50_ms", Stats.slice_medians 10 lat_ms);
        ("direct_overruns", Trace.Json.Int !direct);
        ("known_misses", Trace.Json.Int !known_misses);
        ("oob_programs", Trace.Json.Int (n / Inputs.oob_every));
        ("engine", Trace.Json.Str "block");
        ("chaining", Trace.Json.Bool true) ];
  }
