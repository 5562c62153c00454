(* Self-tests of the benchmark's own logic: percentiles, host-speed
   scaling, span self time, seeded inputs, and each workload's
   correctness check.

     dune build @cashbench/runtest   (also part of dune runtest) *)

let checks = ref 0
let failures = ref 0

let expect name cond =
  incr checks;
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let floats n = Array.init n (fun i -> float_of_int (i + 1))

(* --- percentiles -------------------------------------------------------------- *)

let () =
  let s = Stats.sorted (floats 100) in
  expect "p50 of 1..100" (Stats.percentile s 50. = 50.);
  expect "p90 of 1..100" (Stats.percentile s 90. = 90.);
  expect "p99 of 1..100" (Stats.percentile s 99. = 99.);
  expect "p100 is the max" (Stats.percentile s 100. = 100.);
  expect "p0 is the min" (Stats.percentile s 0. = 1.);
  expect "nearest rank rounds up" (Stats.percentile (Stats.sorted (floats 7)) 50. = 4.);
  expect "median of unsorted" (Stats.median [| 5.; 1.; 3. |] = 3.);
  let k = Stats.summarize (floats 1000) in
  expect "1000 samples: p99 = 990" (k.Stats.p99 = 990.);
  expect "1000 samples: 10 beyond p99" (k.Stats.p99_beyond = 10);
  expect "999 samples: 9 beyond p99" ((Stats.summarize (floats 999)).Stats.p99_beyond = 9);
  let k = Stats.summarize (floats 15) in
  expect "15 samples: p99 is the maximum, nothing beyond"
    (k.Stats.p99 = 15. && k.Stats.p99_beyond = 0 && k.Stats.p50 = 8.);
  expect "sample count" ((Stats.summarize (floats 42)).Stats.n = 42)

(* --- host-speed scaling ---------------------------------------------------------- *)

let () =
  let scaled, raw =
    Common.end_to_end ~scale:0.5 ~wall:10. ~ops:1000 ~p50_ms:2. ~p99_ms:8.
      ~setup_s:0.2 ~peak_mb:30.
  in
  let v ms name = (List.find (fun m -> m.Common.m_name = name) ms).Common.m_value in
  expect "end-to-end names follow the catalogue"
    (List.map (fun m -> (m.Common.m_name, m.Common.m_unit)) scaled = Catalog.end_to_end);
  expect "raw rate is ops over wall" (v raw "req_per_s" = 100.);
  expect "times scale" (v scaled "wall_s" = 5. && v scaled "p99_ms" = 4. && v scaled "setup_s" = 0.1);
  expect "rates scale inversely" (v scaled "req_per_s" = 200.);
  expect "heap does not scale" (v scaled "peak_heap_mb" = 30.);
  let h = Host.create () in
  Host.sample h;
  Host.sample h;
  Host.sample h;
  expect "probe scale is positive and finite"
    (Float.is_finite (Host.scale h) && Host.scale h > 0.)

(* --- span self time ------------------------------------------------------------ *)

let span id ?(parent = -1) t0 t1 =
  { Span.id; name = "s" ^ string_of_int id; tag = ""; op = 0; parent;
    t0 = Int64.of_int t0; t1 = Int64.of_int t1 }

let () =
  (* root [0,100] with children [10,40] and [30,60] (overlapping, so
     their union counts once), a child sticking out past the root's end,
     and a grandchild [15,20] under the first child. *)
  let spans =
    [ span 0 0 100; span 1 ~parent:0 10 40; span 2 ~parent:0 30 60;
      span 3 ~parent:0 90 130; span 4 ~parent:1 15 20 ]
  in
  let self = List.map (fun (s, t) -> (s.Span.id, t)) (Span.self_times spans) in
  expect "root self = 100 - |[10,60] u [90,100]|" (List.assoc 0 self = 40.);
  expect "child self excludes its grandchild" (List.assoc 1 self = 25.);
  expect "leaf self = duration" (List.assoc 4 self = 5.);
  expect "coverage of the root by its children"
    (Span.child_coverage ~root:"s0" spans = 60.);
  let totals = Span.totals spans in
  expect "totals by name" (Span.self_ns totals "s1" = 25.);
  (* Recorded spans: parents and self times add up to the outer span. *)
  let r = Span.create () in
  Span.set_op r 7;
  Span.with_span r "outer" (fun () ->
      Span.with_span r ~tag:"cash" "inner" (fun () -> ignore (Sys.opaque_identity (floats 1000)));
      Span.with_span r "inner" (fun () -> ()));
  let recorded = Span.spans r in
  let outer = List.find (fun s -> s.Span.name = "outer") recorded in
  expect "three spans recorded" (List.length recorded = 3);
  expect "children point at the outer span"
    (List.for_all
       (fun s -> s.Span.name = "outer" || s.Span.parent = outer.Span.id)
       recorded);
  expect "operation id carried" (List.for_all (fun s -> s.Span.op = 7) recorded);
  let sum = List.fold_left (fun acc (_, t) -> acc +. t) 0. (Span.self_times recorded) in
  expect "self times sum to the outer duration" (sum = Span.duration outer);
  let totals = Span.totals recorded in
  expect "tagged spans also count per tag"
    (Layers.calls totals "inner" = 2 && Layers.calls totals "inner.cash" = 1)

(* --- seeded inputs ------------------------------------------------------------- *)

let () =
  let names = Serve.Server.table8_names () in
  let stream = Inputs.serve_stream ~names in
  let lines seed = List.init 240 (fun i -> Inputs.serve_line stream ~seed i) in
  expect "same seed, same request stream" (lines 7 = lines 7);
  expect "another seed, another request stream" (lines 7 <> lines 8);
  (* Outside the substituted compile-and-run slots the stream is
     gen_mix's, byte for byte. *)
  let mix = Serve.Server.gen_mix ~names 240 in
  let same_as_mix =
    List.for_all2 (fun i (ours, theirs) -> i mod 8 = 7 || ours = theirs)
      (List.init 240 Fun.id) (List.combine (lines 7) mix)
  in
  expect "the stream is gen_mix's outside the distinct programs" same_as_mix;
  let kinds =
    List.init 240 (fun i -> W_serve.kind_of (Inputs.serve_request stream ~seed:7 i))
  in
  let count k = List.length (List.filter (( = ) k) kinds) in
  expect "three replays per compile-and-run" (count "replay" = 3 * count "compile_run");
  let distinct =
    List.sort_uniq compare
      (List.filter_map
         (fun i ->
           match (Inputs.serve_request stream ~seed:7 i).Serve.Protocol.rq_spec with
           | Serve.Protocol.Compile_and_run { source; _ } when i mod 8 = 7 -> Some source
           | _ -> None)
         (List.init 240 Fun.id))
  in
  expect "the substituted programs are distinct" (List.length distinct = 30);
  let programs seed =
    List.init 60 (fun k ->
        let gseed, p = Inputs.fuzz_program ~seed ~stream:Inputs.fuzz_seeds k in
        (gseed, Fuzz.Gen.render p))
  in
  expect "same seed, same program list" (programs 7 = programs 7);
  expect "another seed, another program list" (programs 7 <> programs 8);
  expect "fuzz and warm-up seeds are disjoint"
    (Inputs.gen_seed ~seed:7 ~stream:Inputs.fuzz_seeds 0
     <> Inputs.gen_seed ~seed:7 ~stream:Inputs.warmup_seeds 0);
  let overruns =
    List.length
      (List.filter
         (fun k ->
           (snd (Inputs.fuzz_program ~seed:7 ~stream:Inputs.fuzz_seeds k)).Fuzz.Gen.oob
           <> None)
         (List.init 60 Fun.id))
  in
  expect "every third program overruns" (overruns = 20)

(* --- the correctness checks reject tampered outputs ---------------------------- *)

let () =
  (* repro *)
  let reference = W_repro.reference_lines Repro_reference.text in
  expect "the committed reference has every experiment and the matrix"
    (List.length reference = List.length W_repro.experiment_names + 1
                             + List.length Harness.Matrix.schemes);
  expect "repro: the reference matches itself"
    (W_repro.compare_lines ~reference reference = []);
  let tampered =
    List.map
      (fun l -> if String.length l > 7 && String.sub l 0 7 = "table3 " then "table3 0" else l)
      reference
  in
  expect "repro: a changed report digest is rejected"
    (List.length (W_repro.compare_lines ~reference tampered) = 1);
  expect "repro: a missing report is rejected"
    (W_repro.compare_lines ~reference (List.tl reference) <> []);
  let totals =
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "total"; "cash"; c ] -> Printf.sprintf "total cash %d" (int_of_string c + 1)
        | _ -> l)
      reference
  in
  expect "repro: a changed matrix total is rejected"
    (List.length (W_repro.compare_lines ~reference totals) = 1)

let () =
  (* serve: two real requests through a real server, then tampered
     copies of their responses. *)
  Core.set_default_engine Machine.Cpu.Block;
  let tally = Common.tally () in
  let { W_serve.warms; server } = W_serve.set_up tally in
  expect "serve: set-up replays succeed" (tally.Common.t_failed = 0);
  let stream = Inputs.serve_stream ~names:(Serve.Server.table8_names ()) in
  List.iter
    (fun i ->
      let rq = Inputs.serve_request stream ~seed:3 i in
      let line = Trace.Json.to_string (Serve.Protocol.request_to_json rq) in
      let r = Serve.Server.handle_line server ~default_id:(i + 1) line in
      let expected = W_serve.derive warms rq in
      let ok r = W_serve.verify ~expected rq r = None in
      let what = W_serve.kind_of rq in
      expect ("serve: a right " ^ what ^ " response passes") (ok r);
      expect ("serve: changed output is rejected (" ^ what ^ ")")
        (not (ok { r with Serve.Protocol.rs_output = r.Serve.Protocol.rs_output ^ "x" }));
      expect ("serve: changed cycles are rejected (" ^ what ^ ")")
        (not (ok { r with Serve.Protocol.rs_cycles = r.Serve.Protocol.rs_cycles + 1 }));
      expect ("serve: a changed status is rejected (" ^ what ^ ")")
        (not (ok { r with Serve.Protocol.rs_status = "crashed" }));
      expect ("serve: ok=false is rejected (" ^ what ^ ")")
        (not (ok (Serve.Protocol.failure ~id:(i + 1) "tampered"))))
    [ 0; 7 ]

let () =
  (* fuzz: the judge of a real verdict, a flipped known-miss flag, and
     a forced oracle failure. *)
  let direct_program =
    List.find_map
      (fun k ->
        let gseed, p = Inputs.fuzz_program ~seed:1 ~stream:Inputs.fuzz_seeds k in
        if Fuzz.Gen.oob_is_direct p.Fuzz.Gen.oob then Some (gseed, p) else None)
      (List.init 300 Fun.id)
  in
  match direct_program with
  | None -> expect "fuzz: a direct overrun among 300 programs" false
  | Some (gseed, p) ->
    let v = Fuzz.Check.check ~seed:gseed p in
    expect "fuzz: a right verdict passes" (W_fuzz.judge ~direct:true v = None);
    expect "fuzz: a known miss on a program without a direct overrun is rejected"
      (W_fuzz.judge ~direct:false v <> None);
    expect "fuzz: an oracle failure is rejected"
      (W_fuzz.judge ~direct:true (Fuzz.Check.check ~force_fail:true ~seed:gseed p) <> None)

let () =
  if !failures > 0 then begin
    Printf.printf "cashbench selftest: %d of %d checks failed\n" !failures !checks;
    exit 1
  end
