(* The per-layer pipeline, replayed from outside: the calls [Core.compile]
   and [Core.run] make, one public function at a time, each inside a
   span. Counts that are not times (code bytes, minor words, retired
   instructions) accumulate beside the spans under the same names. *)

type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 64

let add (a : acc) ?(tag = "") key v =
  let bump k = Hashtbl.replace a k (v +. Option.value (Hashtbl.find_opt a k) ~default:0.) in
  bump key;
  if tag <> "" then bump (key ^ "." ^ tag)

let get (a : acc) key = Option.value (Hashtbl.find_opt a key) ~default:0.

(* [Core.compile], layer by layer. [Parser.parse_program] lexes its
   input itself, so the standalone [Lexer.scan] before it is extra work
   the untraced path does not do: it times the lexer, and
   [pipeline_metrics] takes its time out of the parse span's. *)
let compile r a ~tag backend src =
  ignore
    (Sys.opaque_identity
       (Span.with_span r ~tag "minic.lex" (fun () -> Minic.Lexer.scan src)));
  let ast =
    Span.with_span r ~tag "minic.parse" (fun () -> Minic.Parser.parse_program src)
  in
  let tprog =
    Span.with_span r ~tag "minic.typecheck" (fun () -> Minic.Typecheck.check ast)
  in
  let compiled =
    Span.with_span r ~tag "compilers.codegen" (fun () ->
        Compilers.Codegen.generate backend tprog)
  in
  (* The figure [Core.static_info] reports as [code_bytes]. *)
  add a ~tag "compilers.code_bytes"
    (float_of_int compiled.Compilers.Codegen.code_bytes);
  compiled

let start r a ~tag ?engine ?chain compiled =
  let w0 = Gc.minor_words () in
  let st =
    Span.with_span r ~tag "osim.load" (fun () ->
        Core.start ?engine ?chain compiled)
  in
  add a ~tag "osim.load_kw" ((Gc.minor_words () -. w0) /. 1e3);
  st

let finish r a ~tag st =
  let n0 = Machine.Cpu.total_retired () in
  let run = Span.with_span r ~tag "machine.exec" (fun () -> Core.finish st) in
  add a ~tag "machine.insns" (float_of_int (Machine.Cpu.total_retired () - n0));
  run

(* Mean self time per call of span [key], in ms. *)
let mean_ms totals key =
  match Hashtbl.find_opt totals key with
  | Some (ns, calls) when calls > 0 -> ns /. float_of_int calls /. 1e6
  | _ -> 0.

let calls totals key =
  match Hashtbl.find_opt totals key with Some (_, c) -> c | None -> 0

(* The compile/load/execute metrics, overall and per scheme. *)
let pipeline_metric_names =
  [ ("minic.lex_ms", "ms"); ("minic.parse_ms", "ms");
    ("minic.typecheck_ms", "ms"); ("compilers.codegen_ms", "ms");
    ("compilers.code_bytes", "bytes"); ("osim.load_ms", "ms");
    ("osim.load_kw", "kwords"); ("machine.exec_ms", "ms");
    ("machine.ns_per_insn", "ns") ]

let pipeline_metrics totals a =
  let one suffix =
    let k base = base ^ suffix in
    if calls totals (k "minic.lex") = 0 && calls totals (k "machine.exec") = 0
    then [] (* a scheme this workload never compiles or runs *)
    else
    let per_call base = mean_ms totals (k base) in
    let ratio num den = if den > 0. then num /. den else 0. in
    [
      ("minic.lex_ms", per_call "minic.lex");
      (* Every compile has one lex and one parse span over the same
         source; the parse span includes a second lex. *)
      ("minic.parse_ms", per_call "minic.parse" -. per_call "minic.lex");
      ("minic.typecheck_ms", per_call "minic.typecheck");
      ("compilers.codegen_ms", per_call "compilers.codegen");
      ("compilers.code_bytes", get a (k "compilers.code_bytes"));
      ("osim.load_ms", per_call "osim.load");
      ( "osim.load_kw",
        ratio (get a (k "osim.load_kw")) (float_of_int (calls totals (k "osim.load"))) );
      ("machine.exec_ms", per_call "machine.exec");
      ( "machine.ns_per_insn",
        ratio (Span.self_ns totals (k "machine.exec")) (get a (k "machine.insns")) );
    ]
    |> List.map (fun (name, v) ->
           Common.metric (name ^ suffix) (List.assoc name pipeline_metric_names) v)
  in
  one "" @ List.concat_map (fun s -> one ("." ^ s)) Common.scheme_names
