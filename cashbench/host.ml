(* Host-speed calibration.

   On the reference host (a 2-vCPU VM) the same work runs 20–50% slower
   for minutes at a time, as other tenants load the shared caches and
   memory: in one 14-minute block of runs, fuzz's raw [wall_s] rose 50%
   from the first seed to the last. No statistic taken inside a run cancels
   a slowdown that lasts longer than the run.

   The probe is fixed work that lives in the benchmark, not in the
   program under test: it builds a 60,000-entry [Map] by path-copying
   inserts in a scattered order and walks it 20 times, so it
   allocates and chases pointers as the simulator, the compiler and the
   server do. Interleaved with fixed blocks of each kind of work for
   five minutes and averaged over windows of about 18 s, its time moved
   with the fuzz check loop (correlation 0.95 of the logarithms), with
   [Core.run] of a matrix workload (0.90) and with snapshot restores and
   runs (0.91); dividing by it cut their coefficient of variation from
   0.11, 0.15 and 0.12 to 0.04, 0.07 and 0.05. A register-only loop
   tracked them worse (0.65–0.82), and a random walk over 8 MB in
   between (0.84–0.88).

   Each workload samples the probe between its timed windows, never
   inside one, and scales its end-to-end timings by
   [reference_s /. mean probe time]: they read as seconds on a host
   where the probe takes [reference_s]. The mean, like a timed window,
   averages the fast and slow stretches of the run. One probe takes
   about 50 ms and varies by up to 50% from one to the next, so each
   sample runs it three times. The raw timings and the probe times stay
   in the full record. *)

module M = Map.Make (Int)

let probe () =
  let t0 = Span.now_ns () in
  let m = ref M.empty in
  for i = 1 to 60_000 do
    m := M.add ((i * 7919) land 0xffff) i !m
  done;
  let s = ref 0 in
  for _ = 1 to 20 do
    M.iter (fun k v -> s := !s + k + v) !m
  done;
  ignore (Sys.opaque_identity !s);
  Int64.to_float (Int64.sub (Span.now_ns ()) t0) *. 1e-9

(* A fixed scale, close to the probe's time on the reference host, so
   scaled timings stay near host seconds there. Only ratios between
   runs matter; changing it rescales every timing of every commit. *)
let reference_s = 0.05

type t = { mutable samples : float list }

let create () = { samples = [] }

let probes_per_sample = 3

(* The full major collection leaves the heap as the probe found it, so
   its garbage does not carry into the next timed window. *)
let sample t =
  for _ = 1 to probes_per_sample do
    t.samples <- probe () :: t.samples
  done;
  Gc.full_major ()

(* Multiply a time by this (divide a rate by it). *)
let scale t = reference_s /. Stats.mean (Array.of_list t.samples)

let to_json t =
  Trace.Json.Obj
    [ ("reference_s", Trace.Json.Float reference_s);
      ("scale", Trace.Json.Float (scale t));
      ( "probe_s",
        Trace.Json.List (List.rev_map (fun s -> Trace.Json.Float s) t.samples) ) ]
