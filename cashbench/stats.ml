(* Order statistics for the benchmark's timings. Percentiles are
   nearest-rank: the p-th percentile of n samples is the smallest sample
   with at least p% of all samples at or below it, i.e. the one at
   1-based rank ceil(p * n / 100). *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n /. 100.))))

(* [sorted_samples] must be sorted ascending and non-empty. *)
let percentile sorted_samples p =
  let n = Array.length sorted_samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted_samples.(rank ~n p - 1)

let median a = percentile (sorted a) 50.

(* Samples strictly above the nearest-rank position of [p]. *)
let beyond ~n p = n - rank ~n p

(* A latency summary: median and 99th percentile, with the number of
   samples beyond the 99th so a record shows how well the tail is
   pinned down (at least 10 makes it a measured tail; fewer makes it a
   near-maximum). *)
type summary = { n : int; p50 : float; p99 : float; p99_beyond : int }

let summarize a =
  let s = sorted a in
  let n = Array.length s in
  { n; p50 = percentile s 50.; p99 = percentile s 99.; p99_beyond = beyond ~n 99. }

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let to_json s =
  let open Trace.Json in
  Obj
    [ ("samples", Int s.n); ("p50", Float s.p50); ("p99", Float s.p99);
      ("beyond_p99", Int s.p99_beyond) ]

(* Medians of [k] consecutive equal slices of [a], in run order: how the
   typical operation's cost moved during the run. *)
let slice_medians k a =
  let n = Array.length a in
  let k = min k n in
  Trace.Json.List
    (List.init k (fun i ->
         let lo = i * n / k and hi = (i + 1) * n / k in
         Trace.Json.Float (median (Array.sub a lo (hi - lo)))))
