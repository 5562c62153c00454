(* Shared pieces of the three workloads: the result each one returns,
   JSON output with full-precision numbers, and process counters. *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* What a workload hands back to the driver. [extra] goes into the full
   result record only (sample counts, tail levels, failure messages). *)
type result = {
  attempted : int;
  failed : int;
  failures : string list;  (* first few, for the record *)
  end_to_end : metric list;
  per_layer : metric list;
  spans : Span.span list;  (* the traced replay's, written out at exit *)
  extra : (string * Trace.Json.t) list;
}

(* Failure bookkeeping: every operation is attempted once; a wrong
   output, an [ok = false] response or a raised exception fails it. *)
type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_msgs : string list;  (* newest first, capped *)
}

let tally () = { t_attempted = 0; t_failed = 0; t_msgs = [] }

let attempt t = t.t_attempted <- t.t_attempted + 1

let fail t msg =
  t.t_failed <- t.t_failed + 1;
  if List.length t.t_msgs < 10 then t.t_msgs <- msg :: t.t_msgs

let failures t = List.rev t.t_msgs

(* Add [t]'s attempts, failures and messages to [into]. *)
let absorb ~into t =
  into.t_attempted <- into.t_attempted + t.t_attempted;
  into.t_failed <- into.t_failed + t.t_failed;
  List.iter
    (fun m -> if List.length into.t_msgs < 10 then into.t_msgs <- m :: into.t_msgs)
    (failures t)

(* --- JSON ------------------------------------------------------------------ *)

(* Shortest decimal that reads back as the same float: numbers are
   printed as measured, with every digit that matters. *)
let float_repr f =
  if not (Float.is_finite f) then "0"
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f

let rec json_to_buffer b (j : Trace.Json.t) =
  match j with
  | Trace.Json.Float f -> Buffer.add_string b (float_repr f)
  | Trace.Json.List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        json_to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Trace.Json.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Trace.Json.to_string (Trace.Json.Str k));
        Buffer.add_char b ':';
        json_to_buffer b v)
      kvs;
    Buffer.add_char b '}'
  | (Trace.Json.Null | Trace.Json.Bool _ | Trace.Json.Int _ | Trace.Json.Str _)
    as v ->
    Buffer.add_string b (Trace.Json.to_string v)

let json_to_string j =
  let b = Buffer.create 1024 in
  json_to_buffer b j;
  Buffer.contents b

let metrics_json ms =
  Trace.Json.Obj
    (List.map
       (fun m ->
         ( m.m_name,
           Trace.Json.Obj
             [ ("value", Trace.Json.Float m.m_value);
               ("unit", Trace.Json.Str m.m_unit) ] ))
       ms)

(* The end-to-end metrics of a run, in [Catalog.end_to_end]'s order:
   its timings scaled by [scale] (see host.ml), and the same figures
   unscaled for the record. [ops] operations took [wall] seconds. *)
let end_to_end ~scale ~wall ~ops ~p50_ms ~p99_ms ~setup_s ~peak_mb =
  let raw =
    [ metric "wall_s" "s" wall;
      metric "req_per_s" "1/s" (float_of_int ops /. wall);
      metric "p50_ms" "ms" p50_ms;
      metric "p99_ms" "ms" p99_ms;
      metric "setup_s" "s" setup_s;
      metric "peak_heap_mb" "MB" peak_mb ]
  in
  let scaled m =
    match m.m_unit with
    | "s" | "ms" -> { m with m_value = m.m_value *. scale }
    | "1/s" -> { m with m_value = m.m_value /. scale }
    | _ -> m
  in
  (List.map scaled raw, raw)

(* --- clocks and counters --------------------------------------------------- *)

(* [timed f] = (result, seconds). *)
let timed f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Span.now_ns ()) t0) *. 1e-9)

(* Run [f] in a new domain and wait for it; then compact, so what runs
   next starts from a heap without that domain's garbage. Domain-local
   state (the serve pools, the physical-memory recycling pool) starts
   empty in the new domain and dies with it. *)
let in_fresh_domain f =
  let v = Domain.join (Domain.spawn f) in
  Gc.compact ();
  v

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Counters whose deltas over a workload's untraced window the per-layer
   metrics report. The [Machine.Cpu] counters and the compiled-program
   cache's are process-wide; minor words are the calling domain's own
   (exact, unlike [Gc.quick_stat]'s, which samples other domains), so a
   window run in a spawned domain is read inside it. [c_compile_s] is
   [Core.compile_seconds], process-wide too. *)
type counters = {
  c_blocks_built : int;
  c_blocks_bound : int;
  c_chains_built : int;
  c_major : int;
  c_minor_words : float;
  c_hits : int;
  c_misses : int;
  c_compile_s : float;
}

let counters () =
  let hits, misses = Core.compile_cache_stats () in
  {
    c_blocks_built = Machine.Cpu.blocks_built ();
    c_blocks_bound = Machine.Cpu.blocks_bound ();
    c_chains_built = Machine.Cpu.chains_built ();
    c_major = (Gc.quick_stat ()).Gc.major_collections;
    c_minor_words = Gc.minor_words ();
    c_hits = hits;
    c_misses = misses;
    c_compile_s = Core.compile_seconds ();
  }

let map2 f g a b =
  {
    c_blocks_built = f a.c_blocks_built b.c_blocks_built;
    c_blocks_bound = f a.c_blocks_bound b.c_blocks_bound;
    c_chains_built = f a.c_chains_built b.c_chains_built;
    c_major = f a.c_major b.c_major;
    c_minor_words = g a.c_minor_words b.c_minor_words;
    c_hits = f a.c_hits b.c_hits;
    c_misses = f a.c_misses b.c_misses;
    c_compile_s = g a.c_compile_s b.c_compile_s;
  }

(* The change from [before] to [after], and the sum of two changes. *)
let delta ~before ~after = map2 ( - ) ( -. ) after before
let sum a b = map2 ( + ) ( +. ) a b

let sum_all = function
  | [] -> invalid_arg "Common.sum_all: no deltas"
  | d :: ds -> List.fold_left sum d ds

(* [window f] runs [f]; returns its result, its seconds and the counter
   deltas over it. *)
let window f =
  let c0 = counters () in
  let t0 = Span.now_ns () in
  let v = f () in
  let t1 = Span.now_ns () in
  (v, Int64.to_float (Int64.sub t1 t0) *. 1e-9, delta ~before:c0 ~after:(counters ()))

(* The per-layer metrics every workload reports from the counter
   deltas [d] over its untraced window. *)
let counter_metrics d =
  let hits = d.c_hits and misses = d.c_misses in
  [
    metric "machine.blocks_built" "count" (float_of_int d.c_blocks_built);
    metric "machine.blocks_bound" "count" (float_of_int d.c_blocks_bound);
    metric "machine.chains_built" "count" (float_of_int d.c_chains_built);
    metric "core.compile_hit_ratio" "ratio"
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses));
    metric "gc.major_collections" "count" (float_of_int d.c_major);
    metric "gc.minor_mwords" "Mwords" (d.c_minor_words /. 1e6);
  ]

(* The protection schemes under the names the matrix table uses. *)
let scheme_name backend =
  match
    List.find_opt (fun (_, b) -> b = backend) Harness.Matrix.schemes
  with
  | Some (name, _) -> name
  | None -> Core.backend_name backend

let scheme_names = List.map fst Harness.Matrix.schemes
