(* Host-time spans, recorded by the benchmark around calls into the
   repository's public functions.

   A span carries a name, start and end (monotonic nanoseconds), the id
   of the span that was open when it started, and the id of the
   operation (request or program) it belongs to. Spans stay in memory
   until the run ends and are then written out as JSON lines. A span's
   self time is its duration minus the part of its interval that its
   child spans cover. *)

let now_ns () = Monotonic_clock.now ()

type span = {
  id : int;
  name : string;
  tag : string;  (* scheme name, or "" *)
  op : int;
  parent : int;  (* -1 for a root *)
  t0 : int64;
  t1 : int64;
}

(* Open and finished spans live in one out-of-heap int array, six
   columns per span, so a traced pass holding hundreds of thousands of
   them adds nothing for the garbage collector to mark; names and tags
   are interned. [spans] turns them into records once the pass is
   over. *)
let cols = 6  (* name, tag, op, parent, t0, t1 *)

type recorder = {
  mutable buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;  (* spans started *)
  interned : (string, int) Hashtbl.t;
  mutable names : string array;  (* by interned id *)
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable cur_op : int;  (* operation id given to new spans *)
}

let create () =
  { buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (cols * 1024);
    len = 0; interned = Hashtbl.create 64; names = [||]; stack = []; cur_op = 0 }

let set_op r op = r.cur_op <- op

let intern r s =
  match Hashtbl.find_opt r.interned s with
  | Some i -> i
  | None ->
    let i = Array.length r.names in
    Hashtbl.add r.interned s i;
    r.names <- Array.append r.names [| s |];
    i

let with_span r ?(tag = "") name f =
  let id = r.len in
  if cols * (id + 1) > Bigarray.Array1.dim r.buf then begin
    let bigger =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * Bigarray.Array1.dim r.buf)
    in
    Bigarray.Array1.blit r.buf (Bigarray.Array1.sub bigger 0 (Bigarray.Array1.dim r.buf));
    r.buf <- bigger
  end;
  r.len <- id + 1;
  let o = cols * id in
  r.buf.{o} <- intern r name;
  r.buf.{o + 1} <- intern r tag;
  r.buf.{o + 2} <- r.cur_op;
  r.buf.{o + 3} <- (match r.stack with p :: _ -> p | [] -> -1);
  r.stack <- id :: r.stack;
  r.buf.{o + 4} <- Int64.to_int (now_ns ());
  Fun.protect
    ~finally:(fun () ->
      r.buf.{o + 5} <- Int64.to_int (now_ns ());
      r.stack <- List.tl r.stack)
    f

let spans r =
  List.init r.len (fun id ->
      let o = cols * id in
      { id; name = r.names.(r.buf.{o}); tag = r.names.(r.buf.{o + 1});
        op = r.buf.{o + 2}; parent = r.buf.{o + 3};
        t0 = Int64.of_int r.buf.{o + 4}; t1 = Int64.of_int r.buf.{o + 5} })

let duration s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Int64.max a lo and b = Int64.min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (total, Some (ca, Int64.max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  Int64.to_float
    (match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a))

(* Self time of every span, in nanoseconds, in [spans] order. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(* Per-name totals of self time (ns) and call counts; a tagged span
   also counts under "name.tag". *)
let totals spans =
  let tbl = Hashtbl.create 64 in
  let add key ns =
    let t, c = Option.value (Hashtbl.find_opt tbl key) ~default:(0., 0) in
    Hashtbl.replace tbl key (t +. ns, c + 1)
  in
  List.iter
    (fun (s, self) ->
      add s.name self;
      if s.tag <> "" then add (s.name ^ "." ^ s.tag) self)
    (self_times spans);
  tbl

let self_ns tbl key =
  match Hashtbl.find_opt tbl key with Some (t, _) -> t | None -> 0.

(* Nanoseconds of the operation spans named [root] that their child
   spans cover: how much of the operations' time the layer spans inside
   them account for. *)
let child_coverage ~root spans =
  List.fold_left
    (fun cov (s, self) ->
      if s.name = root then cov +. duration s -. self else cov)
    0. (self_times spans)

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"name":%S,"tag":%S,"op":%d,"parent":%d,"start_ns":%Ld,"end_ns":%Ld}|}
    s.id s.name s.tag s.op s.parent s.t0 s.t1

let write_jsonl path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (to_json_line s);
          output_char oc '\n')
        spans)
