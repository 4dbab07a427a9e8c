(* Fail on exported values nobody calls.

   Usage: check_surface.exe ROOT ALLOWLIST

   Reads every [val] in ROOT/lib/**/*.mli and looks for a caller in the
   .ml/.mli files under ROOT/{lib,bin,bench,examples,perfbench}, leaving out
   the defining module's own two files.  A reference counts when it is
   qualified by the module's name (the innermost one, for a nested module) or
   by a local [module X = ...] alias of it, or when it is unqualified in a file
   that opens or includes the module.  Files under test/ are never read, so a
   value only the tests call has no caller.

   Prints [file:line val Path.name] for each value with no caller and no
   allowlist line, and [allowlist:line stale Path.name: why] for each allowlist
   line that names no value or a value that now has a caller; exits 1 if it
   printed anything.  The allowlist holds one [Path.name  # reason] per line;
   blank lines and lines starting with [#] are skipped. *)

type tok = Uid of string | Lid of string | Dot | Sym of char

(* ---- lexing: identifiers and dots, skipping comments, strings, chars ---- *)

let is_id_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let lex (s : string) : (tok * int) array =
  let n = String.length s in
  let toks = ref [] in
  let line = ref 1 in
  let emit t = toks := (t, !line) :: !toks in
  let newline_at i = if s.[i] = '\n' then incr line in
  (* index just past the string literal whose opening quote is at [i] *)
  let rec skip_string i =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 < n then newline_at (i + 1);
          skip_string (i + 2)
      | _ ->
          newline_at i;
          skip_string (i + 1)
  in
  (* [{id|...|id}]: index just past the closing delimiter, if [i] opens one *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do incr j done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let cl = String.length close in
      let k = ref (!j + 1) in
      while !k + cl <= n && String.sub s !k cl <> close do
        newline_at !k;
        incr k
      done;
      Some (min n (!k + cl))
    end
    else None
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if s.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else begin
      newline_at i;
      skip_comment (i + 1) depth
    end
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '\n' ->
          incr line;
          go (i + 1)
      | '(' when i + 1 < n && s.[i + 1] = '*' -> go (skip_comment (i + 2) 1)
      | '"' -> go (skip_string (i + 1))
      | '{' -> (
          match quoted_string i with
          | Some j -> go j
          | None ->
              emit (Sym '{');
              go (i + 1))
      | '\'' ->
          if i + 1 < n && s.[i + 1] = '\\' then
            (* escaped char literal: the closing quote comes after the escape *)
            go (match String.index_from_opt s (i + 3) '\'' with Some j -> j + 1 | None -> n)
          else if i + 2 < n && s.[i + 2] = '\'' then go (i + 3)
          else begin
            (* a type variable: skip it, it is no reference *)
            let j = ref (i + 1) in
            while !j < n && is_id_char s.[!j] do incr j done;
            go !j
          end
      | ('~' | '?') when i + 1 < n && (match s.[i + 1] with 'a' .. 'z' | '_' -> true | _ -> false)
        ->
          (* a label names an argument, not a value of some module *)
          let j = ref (i + 1) in
          while !j < n && is_id_char s.[!j] do incr j done;
          emit (Sym '~');
          go !j
      | '.' ->
          emit Dot;
          go (i + 1)
      | '0' .. '9' ->
          let j = ref (i + 1) in
          while
            !j < n
            && (is_id_char s.[!j]
               || (s.[!j] = '.' && !j + 1 < n && match s.[!j + 1] with '0' .. '9' -> true | _ -> false))
          do
            incr j
          done;
          emit (Sym '0');
          go !j
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let j = ref (i + 1) in
          while !j < n && is_id_char s.[!j] do incr j done;
          let id = String.sub s i (!j - i) in
          emit (match id.[0] with 'A' .. 'Z' -> Uid id | _ -> Lid id);
          go !j
      | ' ' | '\t' | '\r' -> go (i + 1)
      | c ->
          emit (Sym c);
          go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !toks)

(* ---- files ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Source files under [root/dir], as paths relative to [root], sorted. *)
let sources root dir ~exts =
  let rec walk rel acc =
    let abs = Filename.concat root rel in
    if not (Sys.file_exists abs) then acc
    else if Sys.is_directory abs then
      Sys.readdir abs |> Array.to_list
      |> List.filter (fun e -> e.[0] <> '.' && e.[0] <> '_')
      |> List.fold_left (fun acc e -> walk (Filename.concat rel e) acc) acc
    else if List.exists (Filename.check_suffix rel) exts then rel :: acc
    else acc
  in
  List.sort compare (walk dir [])

let module_of_file path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ---- exported values ---- *)

type export = {
  file : string;
  line : int;
  path : string list;  (** enclosing modules, outermost first *)
  name : string;
}

let qualified e = String.concat "." (e.path @ [ e.name ])

(* The [val]s of one .mli, tracking [module X : sig ... end] nesting. *)
let exports_of file toks =
  let top = module_of_file file in
  let out = ref [] in
  (* each open [sig]/[object]/[begin] pushes the name of the module it
     opens, if it opens one: the [module X] seen since the last item *)
  let stack = ref [] in
  let pending = ref None in
  let path () = top :: List.rev (List.filter_map Fun.id !stack) in
  Array.iteri
    (fun i (t, line) ->
      match t with
      | Lid "module" -> (
          let name_at k = match toks.(k) with Uid m, _ -> Some m | _ -> None in
          match toks.(i + 1) with
          | Lid "type", _ -> pending := name_at (i + 2)
          | _ -> pending := name_at (i + 1))
      | Lid ("sig" | "object" | "begin") ->
          stack := !pending :: !stack;
          pending := None
      | Lid "end" -> ( match !stack with _ :: rest -> stack := rest | [] -> ())
      | Lid ("val" | "external") -> (
          pending := None;
          match toks.(i + 1) with
          | Lid name, _ -> out := { file; line; path = path (); name } :: !out
          | _ -> ())
      | Lid ("type" | "exception" | "include") when i = 0 || fst toks.(i - 1) <> Lid "module" ->
          pending := None
      | _ -> ())
    toks;
  List.rev !out

(* ---- references ---- *)

(* What one file refers to: [M.name] pairs (M resolved through the file's
   module aliases), the modules it opens or includes, and its unqualified
   names. *)
type refs = {
  file : string;
  qualified : (string * string, unit) Hashtbl.t;
  opened : string list;
  bare : (string, unit) Hashtbl.t;
}

let scan_refs file toks =
  let n = Array.length toks in
  let tok k = if k < n then fst toks.(k) else Sym ' ' in
  (* [module X = A.B.C] makes X an alias of C *)
  let aliases = Hashtbl.create 8 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  (* the last component of the module path starting at [k] *)
  let rec path_end k last =
    match (tok k, tok (k + 1)) with
    | Uid m, Dot -> path_end (k + 2) (Some m)
    | Uid m, _ -> Some m
    | _ -> last
  in
  for k = 0 to n - 1 do
    match (tok k, tok (k + 1), tok (k + 2)) with
    | Lid "module", Uid x, Sym '=' ->
        Option.iter (fun m -> Hashtbl.replace aliases x (resolve m)) (path_end (k + 3) None)
    | _ -> ()
  done;
  let qualified = Hashtbl.create 64 and bare = Hashtbl.create 256 in
  let opened = ref [] in
  let open_at k = Option.iter (fun m -> opened := resolve m :: !opened) (path_end k None) in
  for k = 0 to n - 1 do
    match tok k with
    | Lid ("open" | "include") -> open_at (if tok (k + 1) = Sym '!' then k + 2 else k + 1)
    | Uid m when tok (k + 1) = Dot -> (
        match tok (k + 2) with
        | Lid name -> Hashtbl.replace qualified (resolve m, name) ()
        | Sym '(' -> opened := resolve m :: !opened (* a local open, M.( ... ) *)
        | _ -> ())
    | Lid name when k = 0 || tok (k - 1) <> Dot -> Hashtbl.replace bare name ()
    | _ -> ()
  done;
  { file; qualified; opened = !opened; bare }

(* The first file, outside the defining module's own .ml/.mli, that refers
   to [e]. *)
let caller all_refs e =
  let inner = List.nth e.path (List.length e.path - 1) in
  let own f =
    Filename.dirname f = Filename.dirname e.file && module_of_file f = List.hd e.path
  in
  List.find_map
    (fun r ->
      if own r.file then None
      else if
        Hashtbl.mem r.qualified (inner, e.name)
        || (List.mem inner r.opened && Hashtbl.mem r.bare e.name)
      then Some r.file
      else None)
    all_refs

(* ---- allowlist ---- *)

(* [(line number, Path.name)] for every entry *)
let read_allowlist path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (lineno, l) ->
         if l = "" || l.[0] = '#' then None
         else
           let stop = String.index_from_opt l 0 ' ' |> Option.value ~default:(String.length l) in
           let name = String.sub l 0 stop in
           Some (lineno, List.hd (String.split_on_char '#' name)))

let () =
  let root, allowlist =
    match Sys.argv with
    | [| _; root; allowlist |] -> (root, allowlist)
    | _ ->
        prerr_endline "usage: check_surface ROOT ALLOWLIST";
        exit 2
  in
  let lex_file f = lex (read_file (Filename.concat root f)) in
  let all_refs =
    [ "lib"; "bin"; "bench"; "examples"; "perfbench" ]
    |> List.concat_map (fun dir -> sources root dir ~exts:[ ".ml"; ".mli" ])
    |> List.map (fun f -> scan_refs f (lex_file f))
  in
  let exports =
    sources root "lib" ~exts:[ ".mli" ]
    |> List.concat_map (fun f -> exports_of f (lex_file f))
    |> List.map (fun e -> (e, caller all_refs e))
  in
  let allowed = read_allowlist (Filename.concat root allowlist) in
  let failed = ref false in
  let report fmt =
    failed := true;
    Printf.printf fmt
  in
  List.iter
    (fun (e, c) ->
      if c = None && not (List.exists (fun (_, a) -> a = qualified e) allowed) then
        report "%s:%d val %s\n" e.file e.line (qualified e))
    exports;
  List.iter
    (fun (lineno, name) ->
      match List.filter (fun (e, _) -> qualified e = name) exports with
      | [] -> report "%s:%d stale %s: no such val\n" allowlist lineno name
      | found ->
          Option.iter
            (fun f -> report "%s:%d stale %s: called from %s\n" allowlist lineno name f)
            (List.find_map snd found))
    allowed;
  if !failed then exit 1
