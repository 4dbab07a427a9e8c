type t = {
  mutable compute : float;
  mutable prefetch : float;
  mutable read_fault : float;
  mutable write_fault : float;
  mutable synch : float;
}

let create () =
  { compute = 0.0; prefetch = 0.0; read_fault = 0.0; write_fault = 0.0; synch = 0.0 }

let zero = create
let total t = t.compute +. t.prefetch +. t.read_fault +. t.write_fault +. t.synch

let add a b =
  {
    compute = a.compute +. b.compute;
    prefetch = a.prefetch +. b.prefetch;
    read_fault = a.read_fault +. b.read_fault;
    write_fault = a.write_fault +. b.write_fault;
    synch = a.synch +. b.synch;
  }

let to_list t =
  [
    ("comp", t.compute);
    ("prefetch", t.prefetch);
    ("read fault", t.read_fault);
    ("write fault", t.write_fault);
    ("synch", t.synch);
  ]

let fractions t =
  let tot = total t in
  let f x = if tot = 0.0 then 0.0 else x /. tot in
  [
    ("comp", f t.compute);
    ("prefetch", f t.prefetch);
    ("read fault", f t.read_fault);
    ("write fault", f t.write_fault);
    ("synch", f t.synch);
  ]
