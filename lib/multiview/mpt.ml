module Imap = Map.Make (Int)

type t = { mutable by_offset : Minipage.t Imap.t }

let create () = { by_offset = Imap.empty }

let find t off =
  match Imap.find_last_opt (fun start -> start <= off) t.by_offset with
  | Some (_, mp) when Minipage.contains mp off -> Some mp
  | Some _ | None -> None

let overlaps t (mp : Minipage.t) =
  (* a minipage overlapping [mp] would either contain mp.offset or start
     inside mp's range *)
  match find t mp.offset with
  | Some _ -> true
  | None -> (
    match Imap.find_first_opt (fun start -> start >= mp.offset) t.by_offset with
    | Some (start, _) -> start < Minipage.end_offset mp
    | None -> false)

let add t mp =
  if overlaps t mp then
    invalid_arg (Format.asprintf "Mpt.add: %a overlaps an existing minipage" Minipage.pp mp);
  t.by_offset <- Imap.add mp.Minipage.offset mp t.by_offset

let find_exn t off = match find t off with Some mp -> mp | None -> raise Not_found
let count t = Imap.cardinal t.by_offset

let total_bytes t =
  Imap.fold (fun _ (mp : Minipage.t) acc -> acc + mp.length) t.by_offset 0

let iter t f = Imap.iter (fun _ mp -> f mp) t.by_offset

let max_views_on_a_page t ~page_size =
  let per_page : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  iter t (fun mp ->
      for page = Minipage.first_vpage mp ~page_size to Minipage.last_vpage mp ~page_size do
        let views = Option.value ~default:[] (Hashtbl.find_opt per_page page) in
        if not (List.mem mp.Minipage.view views) then
          Hashtbl.replace per_page page (mp.Minipage.view :: views)
      done);
  Hashtbl.fold (fun _ views acc -> max acc (List.length views)) per_page 0
