(* Benchmark-side spans: wall time and allocated words around the calls
   the benchmark makes into each layer. Off by default; the traced run
   turns them on, keeps them in memory and writes them out at exit.
   With tracing off, [span] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* id of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
  mutable words : float;  (* words allocated inside the span *)
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

(* Minor plus major allocations, less promotions (counted twice
   otherwise). [Gc.minor_words] includes the live minor heap, which
   [Gc.quick_stat] leaves out until the next minor collection. Exact and
   repeatable with one domain. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let w0 = allocated_words () in
    let s = { id; name; parent; t0 = Unix.gettimeofday (); t1 = nan; words = 0.0 } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        s.words <- allocated_words () -. w0;
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

let named name = List.filter (fun s -> s.name = name) !recorded

let total_s name =
  List.fold_left (fun acc s -> acc +. (s.t1 -. s.t0)) 0.0 (named name)

let total_words name =
  List.fold_left (fun acc s -> acc +. s.words) 0.0 (named name)

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"words\":%.0f}"
        s.id s.name s.parent s.t0 s.t1 s.words)
    (List.sort (fun a b -> Int.compare a.id b.id) !recorded);
  Buffer.add_char b ']';
  Buffer.contents b
