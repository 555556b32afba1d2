module A = Reach_fixture.Alpha

let () = print_int (Reach_fixture.Beta.shared A.aliased + A.stale)
