(* serve: the cashd request path in-process, as a closed loop with one
   client. The client hands each request line to
   [Serve.Server.handle_line] and encodes the response, as cashd does
   before writing it out; the next request goes out once the previous
   one is encoded. The server has cashd's defaults: the block engine,
   pooled [restore_into], and the Table 8 warm set. *)

(* Requests per second of [--seconds] on the reference host. *)
let requests_per_second = 450

type setup = { warms : Serve.Server.warm list; server : Serve.Server.t }

let replay_line ~id name =
  Trace.Json.to_string
    (Serve.Protocol.request_to_json
       { Serve.Protocol.rq_id = id; rq_engine = None;
         rq_spec = Serve.Protocol.Replay { snapshot = name } })

(* Set-up: the warm set, a server over it, and one replay per warm image
   so that the replay pools exist before timing. *)
let set_up tally =
  let warms = Serve.Server.table8_warms ~jobs:1 () in
  let server =
    Serve.Server.create ~jobs:1 ~engine:Machine.Cpu.Block ~warms ()
  in
  List.iteri
    (fun i (w : Serve.Server.warm) ->
      let r =
        Serve.Server.handle_line server ~default_id:(i + 1)
          (replay_line ~id:(i + 1) w.Serve.Server.w_name)
      in
      if not r.Serve.Protocol.rs_ok then
        Common.fail tally ("set-up replay failed: " ^ w.Serve.Server.w_name))
    warms;
  { warms; server }

let kind_of (rq : Serve.Protocol.request) =
  match rq.Serve.Protocol.rq_spec with
  | Serve.Protocol.Replay _ -> "replay"
  | Serve.Protocol.Compile_and_run _ -> "compile_run"

(* --- the correctness check ------------------------------------------------- *)

(* The fields a response must carry, re-derived through a path that
   shares neither the pools nor the compiled-program cache: a fresh
   [Core.restore] for a replay, an uncached [Core.compile] plus
   [Core.run] for a compile-and-run. *)
type expected = {
  e_status : string;
  e_detail : string;
  e_output : string;
  e_cycles : int;
  e_insns : int;
}

let expected_of_run (run : Core.run) =
  let r = Serve.Protocol.of_run ~id:0 ~latency_us:0. run in
  Machine.Phys_mem.release (Osim.Process.phys run.Core.process);
  { e_status = r.Serve.Protocol.rs_status; e_detail = r.Serve.Protocol.rs_detail;
    e_output = r.Serve.Protocol.rs_output; e_cycles = r.Serve.Protocol.rs_cycles;
    e_insns = r.Serve.Protocol.rs_insns }

let derive warms (rq : Serve.Protocol.request) =
  match rq.Serve.Protocol.rq_spec with
  | Serve.Protocol.Replay { snapshot } ->
    let w =
      List.find (fun (w : Serve.Server.warm) -> w.Serve.Server.w_name = snapshot) warms
    in
    expected_of_run
      (Core.finish
         (Core.restore ~engine:Machine.Cpu.Block w.Serve.Server.w_compiled
            w.Serve.Server.w_image))
  | Serve.Protocol.Compile_and_run { backend; source } ->
    expected_of_run
      (Core.run ~engine:Machine.Cpu.Block (Core.compile backend source))

(* [None] when response [r] to request [rq] is right. *)
let verify ~expected (rq : Serve.Protocol.request) (r : Serve.Protocol.response) =
  let id = rq.Serve.Protocol.rq_id in
  if not r.Serve.Protocol.rs_ok then
    Some
      (Printf.sprintf "request %d: ok=false (%s)" id
         (Option.value r.Serve.Protocol.rs_error ~default:""))
  else if r.Serve.Protocol.rs_id <> id then
    Some (Printf.sprintf "request %d answered as %d" id r.Serve.Protocol.rs_id)
  else
    let e = expected in
    if r.Serve.Protocol.rs_status <> e.e_status
       || r.Serve.Protocol.rs_detail <> e.e_detail
    then
      Some
        (Printf.sprintf "request %d: status %s (%s), expected %s (%s)" id
           r.Serve.Protocol.rs_status r.Serve.Protocol.rs_detail e.e_status
           e.e_detail)
    else if r.Serve.Protocol.rs_output <> e.e_output then
      Some (Printf.sprintf "request %d: output differs" id)
    else if r.Serve.Protocol.rs_cycles <> e.e_cycles
            || r.Serve.Protocol.rs_insns <> e.e_insns
    then
      Some
        (Printf.sprintf "request %d: %d cycles / %d insns, expected %d / %d" id
           r.Serve.Protocol.rs_cycles r.Serve.Protocol.rs_insns e.e_cycles
           e.e_insns)
    else None

(* Check every response, deriving each distinct request's expectation
   once. *)
let check_all tally warms requests responses =
  let memo = Hashtbl.create 64 in
  Array.iteri
    (fun i (rq : Serve.Protocol.request) ->
      let key =
        match rq.Serve.Protocol.rq_spec with
        | Serve.Protocol.Replay { snapshot } -> "replay:" ^ snapshot
        | Serve.Protocol.Compile_and_run { backend; source } ->
          Common.scheme_name backend ^ ":" ^ Digest.string source
      in
      match
        let expected =
          match Hashtbl.find_opt memo key with
          | Some e -> e
          | None ->
            let e = derive warms rq in
            Hashtbl.add memo key e;
            e
        in
        verify ~expected rq responses.(i)
      with
      | None -> ()
      | Some msg -> Common.fail tally msg
      | exception e ->
        Common.fail tally
          (Printf.sprintf "request %d: check raised %s" (i + 1)
             (Printexc.to_string e)))
    requests

(* --- the traced replay ----------------------------------------------------- *)

(* The server's per-request steps through their public functions, in
   its order: parse, then the compiled-program cache or the warm image,
   pool acquire, [restore_into], [finish], encode. The replay keeps its
   own pools and start-image memo, as a second server would. *)
type replayer = {
  r_warms : Serve.Server.warm list;
  pools : (string, Serve.Pool.t) Hashtbl.t;
  images : (int, bytes) Hashtbl.t;
  mutable missed : (Core.backend * string) list;  (* compile-cache misses *)
}

let traced_request r a rp ~id line =
  Span.set_op r id;
  let rq = Serve.Protocol.parse_request ~default_id:id line in
  let tag = match rq with Ok rq -> kind_of rq | Error _ -> "error" in
  Span.with_span r ~tag "serve.request" (fun () ->
      let rq =
        Span.with_span r "serve.parse" (fun () ->
            Serve.Protocol.parse_request ~default_id:id line)
      in
      let response =
        match rq with
        | Error msg -> Serve.Protocol.failure ~id msg
        | Ok rq ->
          let key, compiled, image =
            match rq.Serve.Protocol.rq_spec with
            | Serve.Protocol.Replay { snapshot } ->
              let w =
                List.find
                  (fun (w : Serve.Server.warm) -> w.Serve.Server.w_name = snapshot)
                  rp.r_warms
              in
              ("replay:" ^ snapshot, w.Serve.Server.w_compiled, w.Serve.Server.w_image)
            | Serve.Protocol.Compile_and_run { backend; source } ->
              let tag = Common.scheme_name backend in
              let _, misses0 = Core.compile_cache_stats () in
              let compiled =
                Span.with_span r ~tag "core.compile_cached" (fun () ->
                    Core.compile_cached backend source)
              in
              if snd (Core.compile_cache_stats ()) > misses0 then
                rp.missed <- (backend, source) :: rp.missed;
              let uid = compiled.Compilers.Codegen.program.Machine.Program.uid in
              let image =
                match Hashtbl.find_opt rp.images uid with
                | Some image -> image
                | None ->
                  let st =
                    Layers.start r a ~tag ~engine:Machine.Cpu.Block compiled
                  in
                  let image =
                    Span.with_span r "snapshot.save" (fun () ->
                        Buffer.to_bytes (Core.save st))
                  in
                  Hashtbl.add rp.images uid image;
                  image
              in
              (Printf.sprintf "src:%d" uid, compiled, image)
          in
          let pool =
            match Hashtbl.find_opt rp.pools key with
            | Some p -> p
            | None ->
              let p = Serve.Pool.create ~engine:Machine.Cpu.Block compiled in
              Hashtbl.add rp.pools key p;
              p
          in
          let st =
            Span.with_span r "serve.pool_acquire" (fun () -> Serve.Pool.acquire pool)
          in
          let w0 = Gc.minor_words () in
          let st' =
            Span.with_span r "snapshot.restore_into" (fun () ->
                Core.restore_into st image)
          in
          Layers.add a "snapshot.restore_into_kw" ((Gc.minor_words () -. w0) /. 1e3);
          let run =
            Layers.finish r a
              ~tag:(Common.scheme_name compiled.Compilers.Codegen.kind) st'
          in
          Serve.Pool.release pool st;
          Serve.Protocol.of_run ~id ~latency_us:0. run
      in
      Span.with_span r "serve.encode" (fun () ->
          ignore
            (Sys.opaque_identity
               (Trace.Json.to_string (Serve.Protocol.response_to_json response)))))

(* Requests one server serves before it is dropped. The server keeps a
   pooled machine and a start image for every program the compiled-
   program cache hands it, in domain-local tables that outlive the
   server, and a cache miss hands it a new program, so one long-lived
   server grows by megabytes per distinct source. Each episode is
   therefore a fresh server in a child process, which bounds the heap at
   what one episode grows to; [peak_heap_mb] reports that.

   A child process rather than a fresh domain: while a second domain
   exists, if only blocked in [Domain.join], every minor collection
   stops both, and an allocation-heavy loop in a spawned domain ran 25%
   slower than in the main one. Run that way, serve's [p99_ms] fell
   into two modes across runs, about 7.5 ms and 13 ms, with the heap
   peaking 20–35 MB higher in the slow mode. *)
let episode_requests = 500

type samples = {
  lat : float array;  (* ns, untraced *)
  alloc : float array;  (* bytes allocated per request *)
  kinds : string array;
}

(* What an episode's process hands back. *)
type episode = {
  setup_s : float;
  window_ns : float;
  counts : Common.counters;  (* deltas over the request loop alone *)
  image_kb : float;  (* mean warm image size *)
  peak_mb : float;
  e_tally : Common.tally;
  e_samples : samples;  (* the episode's requests only *)
}

(* Run [f] in a child process and return its result, which must not
   hold closures. The child leaves with [Unix._exit], so it runs no
   [at_exit] handler and flushes none of the parent's buffers. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc v [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v =
      match Marshal.from_channel ic with
      | v -> v
      | exception End_of_file -> Error "the episode's process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match v with Ok v -> v | Error msg -> failwith msg)

(* One untraced episode: requests [first, first + len). *)
let episode ~seed ~stream ~first ~len =
  in_child (fun () ->
      let tally = Common.tally () in
      let sm =
        { lat = Array.make len 0.; alloc = Array.make len 0.; kinds = Array.make len "" }
      in
      let { warms; server }, setup_s = Common.timed (fun () -> set_up tally) in
      let requests =
        Array.init len (fun j -> Inputs.serve_request stream ~seed (first + j))
      in
      let lines =
        Array.map
          (fun rq -> Trace.Json.to_string (Serve.Protocol.request_to_json rq))
          requests
      in
      let responses = Array.make len (Serve.Protocol.failure ~id:0 "not run") in
      let c0 = Common.counters () in
      let b0 = Span.now_ns () in
      for j = 0 to len - 1 do
        let i = first + j in
        let a0 = Gc.allocated_bytes () in
        let t0 = Span.now_ns () in
        (match Serve.Server.handle_line server ~default_id:(i + 1) lines.(j) with
         | r ->
           ignore
             (Sys.opaque_identity
                (Trace.Json.to_string (Serve.Protocol.response_to_json r)));
           responses.(j) <- r
         | exception e ->
           responses.(j) <-
             Serve.Protocol.failure ~id:(i + 1) (Printexc.to_string e));
        let t1 = Span.now_ns () in
        sm.alloc.(j) <- Gc.allocated_bytes () -. a0;
        sm.lat.(j) <- Int64.to_float (Int64.sub t1 t0);
        sm.kinds.(j) <- kind_of requests.(j)
      done;
      let window_ns = Int64.to_float (Int64.sub (Span.now_ns ()) b0) in
      let counts = Common.delta ~before:c0 ~after:(Common.counters ()) in
      Array.iter (fun _ -> Common.attempt tally) requests;
      check_all tally warms requests responses;
      let image_kb =
        Stats.mean
          (Array.of_list
             (List.map
                (fun (w : Serve.Server.warm) ->
                  float_of_int (Bytes.length w.Serve.Server.w_image) /. 1024.)
                warms))
      in
      { setup_s; window_ns; counts; image_kb; peak_mb = Common.peak_heap_mb ();
        e_tally = tally; e_samples = sm })

(* The traced replay of the same episode, in its own fresh domain.
   Returns the replay's nanoseconds. *)
let traced_episode r a ~seed ~stream ~first ~len =
  Common.in_fresh_domain (fun () ->
      let warms = Serve.Server.table8_warms ~jobs:1 () in
      let rp =
        { r_warms = warms; pools = Hashtbl.create 64; images = Hashtbl.create 64;
          missed = [] }
      in
      (* Prime the replay pools as the server's set-up does. *)
      List.iteri
        (fun i (w : Serve.Server.warm) ->
          traced_request (Span.create ()) (Layers.acc ()) rp ~id:(i + 1)
            (replay_line ~id:(i + 1) w.Serve.Server.w_name))
        warms;
      let lines = Array.init len (fun j -> Inputs.serve_line stream ~seed (first + j)) in
      let t0 = Span.now_ns () in
      Array.iteri (fun j line -> traced_request r a rp ~id:(first + j + 1) line) lines;
      let traced_ns = Int64.to_float (Int64.sub (Span.now_ns ()) t0) in
      (* Split each compile-cache miss into its layers, outside the
         request spans: the replay times [Core.compile_cached] whole. *)
      Span.set_op r (-1);
      List.iter
        (fun (backend, source) ->
          Span.with_span r "serve.miss_breakdown" (fun () ->
              ignore
                (Layers.compile r a ~tag:(Common.scheme_name backend) backend source)))
        (List.rev rp.missed);
      traced_ns)

let run ~seed ~seconds ~trace =
  Core.set_default_engine Machine.Cpu.Block;
  let n = max episode_requests (requests_per_second * seconds) in
  let tally = Common.tally () in
  let stream = Inputs.serve_stream ~names:(Serve.Server.table8_names ()) in
  let sm =
    { lat = Array.make n 0.; alloc = Array.make n 0.; kinds = Array.make n "" }
  in
  let spans_of = List.init ((n + episode_requests - 1) / episode_requests) (fun e ->
      let first = e * episode_requests in
      (first, min episode_requests (n - first)))
  in
  (* The host probe runs in this process before the first episode and
     after each, while no episode runs. *)
  let host = Host.create () in
  Host.sample host;
  let episodes =
    List.map
      (fun (first, len) ->
        let e = episode ~seed ~stream ~first ~len in
        Host.sample host;
        Common.absorb ~into:tally e.e_tally;
        Array.blit e.e_samples.lat 0 sm.lat first len;
        Array.blit e.e_samples.alloc 0 sm.alloc first len;
        Array.blit e.e_samples.kinds 0 sm.kinds first len;
        e)
      spans_of
  in
  let peak =
    List.fold_left (fun m e -> Float.max m e.peak_mb) (Common.peak_heap_mb ()) episodes
  in
  let setup_s = Stats.median (Array.of_list (List.map (fun e -> e.setup_s) episodes)) in
  let wall_ns = List.fold_left (fun acc e -> acc +. e.window_ns) 0. episodes in
  let wall = wall_ns *. 1e-9 in
  let lat_ms = Array.map (fun ns -> ns /. 1e6) sm.lat in
  let s = Stats.summarize lat_ms in
  let end_to_end, raw =
    Common.end_to_end ~scale:(Host.scale host) ~wall ~ops:n ~p50_ms:s.Stats.p50
      ~p99_ms:s.Stats.p99 ~setup_s ~peak_mb:peak
  in
  let mean_of kind arr =
    let sel = ref [] in
    Array.iteri (fun i k -> if k = kind then sel := arr.(i) :: !sel) sm.kinds;
    Stats.mean (Array.of_list !sel)
  in
  let per_layer, spans =
    if not trace then ([], [])
    else begin
      let r = Span.create () and a = Layers.acc () in
      let traced_ns =
        List.fold_left
          (fun acc (first, len) -> acc +. traced_episode r a ~seed ~stream ~first ~len)
          0. spans_of
      in
      let spans = Span.spans r in
      let totals = Span.totals spans in
      let covered = Span.child_coverage ~root:"serve.request" spans in
      let image_kb = match episodes with e :: _ -> e.image_kb | [] -> 0. in
      let counts = Common.sum_all (List.map (fun e -> e.counts) episodes) in
      let restores = float_of_int (Layers.calls totals "snapshot.restore_into") in
      ( Layers.pipeline_metrics totals a
        @ Common.counter_metrics counts
        @ [ Common.metric "snapshot.restore_into_ms" "ms"
              (Layers.mean_ms totals "snapshot.restore_into");
            Common.metric "snapshot.restore_into_kw" "kwords"
              (Layers.get a "snapshot.restore_into_kw" /. restores);
            Common.metric "snapshot.image_kb" "KB" image_kb;
            Common.metric "serve.parse_ms" "ms" (Layers.mean_ms totals "serve.parse");
            Common.metric "serve.encode_ms" "ms" (Layers.mean_ms totals "serve.encode");
            Common.metric "serve.replay_ms" "ms" (mean_of "replay" sm.lat /. 1e6);
            Common.metric "serve.compile_run_ms" "ms"
              (mean_of "compile_run" sm.lat /. 1e6);
            Common.metric "serve.alloc_kb" "KB" (Stats.mean sm.alloc /. 1024.);
            Common.metric "trace.overhead_pct" "%"
              (100. *. (traced_ns -. wall_ns) /. wall_ns);
            Common.metric "trace.coverage_pct" "%"
              (100. *. covered /. Array.fold_left ( +. ) 0. sm.lat) ],
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
        ("host", Host.to_json host);
        ("episodes", Trace.Json.Int (List.length episodes));
        ("latency", Stats.to_json s);
        ("slice_p50_ms", Stats.slice_medians 10 lat_ms);
        ("engine", Trace.Json.Str "block");
        ("chaining", Trace.Json.Bool (Core.chaining_enabled ())) ];
  }
