(* Seeded inputs. The workload seed picks every generated program; the
   program under test only ever sees the request lines and sources made
   here. Each stream draws generator seeds from its own block of
   [block] consecutive values, so the serve programs, the fuzz programs
   and the fuzz warm-up never share a program within one seed, and two
   seeds never share one either. *)

let block = 1_000_000

let gen_seed ~seed ~stream k =
  if k < 0 || k >= block then invalid_arg "Inputs.gen_seed: index out of range";
  (((seed * 3) + stream) * block) + k

(* --- fuzz ------------------------------------------------------------------ *)

(* cashfuzz's default: every third program carries an injected overrun. *)
let oob_every = 3

let fuzz_program ~seed ~stream k =
  let gseed = gen_seed ~seed ~stream k in
  (gseed, Fuzz.Gen.generate ~seed:gseed ~oob:(k mod oob_every = oob_every - 1))

let fuzz_seeds = 0
let warmup_seeds = 1
let serve_seeds = 2

(* --- serve ----------------------------------------------------------------- *)

(* [Serve.Server.gen_mix] is periodic: request [i] is a compile-and-run
   when [i mod 4 = 3] (micro kernel [(i / 4) mod 3]) and otherwise a
   replay of warm name [i mod 12]. One period, parsed once, generates
   the unbounded stream. Every other compile-and-run keeps gen_mix's
   micro kernel; the rest carry a distinct in-bounds [Fuzz.Gen] program
   under the same backend, so the compiled-program cache sees new
   sources at a steady rate. *)
type serve_stream = { template : Serve.Protocol.request array }

let serve_stream ~names =
  let period = 12 in
  let parse i line =
    match Serve.Protocol.parse_request ~default_id:(i + 1) line with
    | Ok rq -> rq
    | Error e -> failwith ("gen_mix produced an unparsable line: " ^ e)
  in
  { template = Array.of_list (List.mapi parse (Serve.Server.gen_mix ~names period)) }

let serve_request s ~seed i =
  let t = s.template.(i mod Array.length s.template) in
  let rq_spec =
    match t.Serve.Protocol.rq_spec with
    | Serve.Protocol.Compile_and_run { backend; _ } when i / 4 mod 2 = 1 ->
      let gseed = gen_seed ~seed ~stream:serve_seeds (i / 8) in
      let source = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:gseed ~oob:false) in
      Serve.Protocol.Compile_and_run { backend; source }
    | spec -> spec
  in
  { t with Serve.Protocol.rq_id = i + 1; rq_spec }

let serve_line s ~seed i =
  Trace.Json.to_string
    (Serve.Protocol.request_to_json (serve_request s ~seed i))
