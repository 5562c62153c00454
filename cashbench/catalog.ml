(* Every metric the benchmark reports, with its unit, in output order.
   BENCHMARK.json lists the same names. A traced run prints every
   per-layer metric; one that does not apply to the workload (a serve
   layer on the fuzz workload, say) reads 0 and is named in the record's
   "not_applicable" list. *)

let end_to_end =
  [ ("wall_s", "s"); ("req_per_s", "1/s"); ("p50_ms", "ms"); ("p99_ms", "ms");
    ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer =
  Layers.pipeline_metric_names
  @ List.concat_map
      (fun scheme ->
        List.map (fun (n, u) -> (n ^ "." ^ scheme, u)) Layers.pipeline_metric_names)
      Common.scheme_names
  @ [ ("machine.blocks_built", "count"); ("machine.blocks_bound", "count");
      ("machine.chains_built", "count"); ("core.compile_hit_ratio", "ratio");
      ("gc.major_collections", "count"); ("gc.minor_mwords", "Mwords");
      ("snapshot.restore_into_ms", "ms"); ("snapshot.restore_into_kw", "kwords");
      ("snapshot.image_kb", "KB"); ("serve.parse_ms", "ms");
      ("serve.encode_ms", "ms"); ("serve.replay_ms", "ms");
      ("serve.compile_run_ms", "ms"); ("serve.alloc_kb", "KB");
      ("fuzz.gen_ms", "ms"); ("fuzz.check_ms", "ms");
      ("fuzz.compile_share", "ratio") ]
  @ List.map (fun name -> ("harness." ^ name ^ "_s", "s")) W_repro.experiment_names
  @ [ ("harness.matrix_s", "s"); ("trace.overhead_pct", "%");
      ("trace.coverage_pct", "%") ]

(* [measured] in catalogue order, filling the metrics it lacks with 0;
   returns them and the names filled. Raises on a measured metric the
   catalogue does not list, or listed under another unit. *)
let complete catalogue (measured : Common.metric list) =
  List.iter
    (fun (m : Common.metric) ->
      match List.assoc_opt m.Common.m_name catalogue with
      | Some u when u = m.Common.m_unit -> ()
      | _ -> failwith ("metric missing from the catalogue: " ^ m.Common.m_name))
    measured;
  let filled = ref [] in
  let ms =
    List.map
      (fun (name, unit_) ->
        match
          List.find_opt (fun (m : Common.metric) -> m.Common.m_name = name) measured
        with
        | Some m -> m
        | None ->
          filled := name :: !filled;
          Common.metric name unit_ 0.)
      catalogue
  in
  (ms, List.rev !filled)
