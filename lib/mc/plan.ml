type t = (int * int) list

let empty = []
let deviations = List.length
let find t ~pos = List.assoc_opt pos t
let sort t = List.sort (fun (a, _) (b, _) -> compare a b) t

let set t ~pos ~pick =
  let rest = List.remove_assoc pos t in
  if pick = 0 then rest else sort ((pos, pick) :: rest)

let remove t ~pos = List.remove_assoc pos t

let to_string = function
  | [] -> "-"
  | t -> String.concat " " (List.map (fun (p, k) -> Printf.sprintf "%d=%d" p k) t)

let of_string s =
  if s = "-" || s = "" then []
  else
    String.split_on_char ' ' s
    |> List.filter (fun tok -> tok <> "")
    |> List.map (fun tok ->
           match String.split_on_char '=' tok with
           | [ p; k ] -> (
             match (int_of_string_opt p, int_of_string_opt k) with
             | Some p, Some k when p >= 0 && k <> 0 -> (p, k)
             | _ -> failwith (Printf.sprintf "Plan.of_string: bad entry %S" tok))
           | _ -> failwith (Printf.sprintf "Plan.of_string: bad entry %S" tok))
    |> sort
