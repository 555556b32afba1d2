module A = Reach_fixture.Alpha

let () = print_int (Reach_fixture.Beta.shared A.aliased + A.stale)

(* Each way of treating an optional parameter, once. *)
let apply_to ~(f : int -> int) = f 1
let call (f : ?kept:int -> int -> int) = f 1
let opt = Some 2

let () =
  let open_ = A.partial ~last:1 in
  List.iter print_int
    [ A.tune 0 (* ?omitted *);
      A.tune ~given:1 0;
      A.tune ?passed:opt 0;
      A.tune ?none:None 0;
      apply_to ~f:A.tune (* ?coerced *);
      open_ ~left:2 ();
      call A.escaped ]
