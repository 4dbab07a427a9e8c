let () = assert (A.tested () && A.dead = 1)
