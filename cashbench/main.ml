(* The benchmark driver: one workload per process.

     dune build ./cashbench/main.exe
     _build/default/cashbench/main.exe --workload serve --seed 1 --seconds 20 --trace 0

   It prints the full result record (host fingerprint, every metric,
   sample counts, failures) and, as its last line, the summary
   {"correct", "attempted", "failed", "metrics"}: with [--trace 0] the
   end-to-end metrics of an untraced run, with [--trace 1] the per-layer
   metrics of a separate traced pass over the same inputs, whose spans
   are written to [--spans-dir]. [cashbench/run.py] builds the driver
   and fills in [--commit] and [--source-digest]. *)

let workloads =
  [ ("repro", W_repro.run ~reference:Repro_reference.text);
    ("serve", W_serve.run); ("fuzz", W_fuzz.run) ]

let usage =
  "main.exe --workload repro|serve|fuzz --seed N --seconds S --trace 0|1"

let fingerprint ~workload ~seed ~commit ~source_digest (r : Common.result) =
  let open Trace.Json in
  let extra k = Option.value (List.assoc_opt k r.Common.extra) ~default:Null in
  Obj
    [ ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version); ("dune_profile", Str Build_info.profile);
      ("engine", extra "engine"); ("chaining", extra "chaining");
      ("jobs", Int 1); ("workload", Str workload); ("seed", Int seed);
      ("commit", Str commit); ("source_digest", Str source_digest) ]

let write_spans ~dir ~workload ~seed spans =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
  Span.write_jsonl path spans;
  path

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref (-1) in
  let commit = ref "unknown" and source_digest = ref "unknown" in
  let spans_dir = ref (Filename.concat "cashbench" "out") in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME repro | serve | fuzz");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length the work is sized for");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--commit", Arg.Set_string commit, "ID commit recorded in the fingerprint");
      ("--source-digest", Arg.Set_string source_digest, "HEX digest of the sources built");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where a traced run writes its spans") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seconds >= 1 && (!trace = 0 || !trace = 1) -> run
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let trace = !trace = 1 in
  let r = run ~seed:!seed ~seconds:!seconds ~trace in
  let e2e, _ = Catalog.complete Catalog.end_to_end r.Common.end_to_end in
  let layers, not_applicable =
    if trace then Catalog.complete Catalog.per_layer r.Common.per_layer else ([], [])
  in
  let spans_file =
    if trace then
      Trace.Json.Str (write_spans ~dir:!spans_dir ~workload:!workload ~seed:!seed r.Common.spans)
    else Trace.Json.Null
  in
  let open Trace.Json in
  let fail_ratio = float_of_int r.Common.failed /. float_of_int (max 1 r.Common.attempted) in
  print_endline
    (Common.json_to_string
       (Obj
          ([ ("record", Str "cashbench"); ("schema", Int 1);
             ( "fingerprint",
               fingerprint ~workload:!workload ~seed:!seed ~commit:!commit
                 ~source_digest:!source_digest r );
             ("seconds", Int !seconds); ("trace", Bool trace);
             ("attempted", Int r.Common.attempted); ("failed", Int r.Common.failed);
             ("fail_ratio", Float fail_ratio);
             ("failures", List (List.map (fun m -> Str m) r.Common.failures));
             ("metrics", Common.metrics_json (e2e @ layers));
             ("not_applicable", List (List.map (fun m -> Str m) not_applicable));
             ("spans_file", spans_file) ]
          @ List.filter (fun (k, _) -> k <> "engine" && k <> "chaining") r.Common.extra)));
  print_endline
    (Common.json_to_string
       (Obj
          [ ("correct", Bool (r.Common.failed = 0));
            ("attempted", Int r.Common.attempted); ("failed", Int r.Common.failed);
            ("metrics", Common.metrics_json (if trace then layers else e2e)) ]))
