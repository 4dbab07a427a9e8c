(** In-memory spans of the traced run, written out once at the end.

    A span is a named wall-clock interval around one call into a layer's
    public functions, made from the benchmark's side of the call.  Each span
    records its start and end (ns on the monotonic clock), the id of the span
    that was open when it began (its parent, [0] at the root) and the run id
    of the repetition it belongs to.

    {!write} emits Chrome trace-event JSON (the format Perfetto opens): one
    complete event ([ph = "X"]) per span, [ts]/[dur] in µs relative to the
    first span, and [args] holding [id], [parent] and [run].  The layer name
    is the span name's prefix up to the first dot, and doubles as the
    event's category. *)

type span = { id : int; name : string; parent : int; run : int; t0 : int; t1 : int }

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let run_id = ref 0

let set_run r = run_id := r

(** [with_span name f] runs [f ()], recording a span around it when spans
    are enabled. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let t0 = Timed.clock_ns () in
    let close () =
      open_ids := List.tl !open_ids;
      spans :=
        { id; name; parent; run = !run_id; t0; t1 = Timed.clock_ns () } :: !spans
    in
    Fun.protect ~finally:close f
  end

(** The spans recorded so far, newest first. *)
let recorded () = !spans

(** Take over the spans a forked child recorded: the child started from this
    process's state, so its spans are this process's plus its own. *)
let adopt child =
  spans := child;
  List.iter (fun s -> next_id := max !next_id s.id) child

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let write path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun m s -> min m s.t0) max_int all in
  let us ns = float_of_int (ns - origin) /. 1000.0 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"run\":%d}}"
        (if i = 0 then "" else ",\n")
        s.name (layer s.name) (us s.t0)
        (float_of_int (s.t1 - s.t0) /. 1000.0)
        s.id s.parent s.run)
    all;
  output_string oc "\n]}\n";
  close_out oc
