(* The reference the nest walker is checked against: a deliberately naive
   evaluator that binds loop variables in a list environment and computes
   every address through [Layout.address_of_ref], in program order.  It
   shares nothing with [Interp] beyond [Loop.iter] and the layout. *)

open Mlc_ir

let naive_trace layout program =
  let out = ref [] in
  let rec run_nest env loops body =
    match loops with
    | [] ->
        List.iter
          (fun s ->
            List.iter
              (fun r ->
                let env_fn v =
                  match List.assoc_opt v env with
                  | Some value -> value
                  | None -> invalid_arg ("Interp.trace: unbound " ^ v)
                in
                out := Layout.address_of_ref layout env_fn r :: !out)
              s.Stmt.refs)
          body
    | loop :: rest ->
        let env_fn v =
          match List.assoc_opt v env with
          | Some value -> value
          | None -> invalid_arg ("Interp.trace: unbound " ^ v)
        in
        Loop.iter env_fn loop (fun iv ->
            run_nest ((loop.Loop.var, iv) :: env) rest body)
  in
  for _step = 1 to program.Program.time_steps do
    List.iter (fun n -> run_nest [] n.Nest.loops n.Nest.body) program.Program.nests
  done;
  Array.of_list (List.rev !out)

(* Push every address of a trace through a hierarchy, one access at a
   time: the simulator side of the naive oracle. *)
let replay hierarchy trace =
  Array.iter
    (fun addr -> ignore (Mlc_cachesim.Hierarchy.access hierarchy ~write:false addr))
    trace

(* The program's accesses as a sorted multiset, for checking that a
   transformation reorders accesses without adding or dropping any. *)
let sorted_trace layout program =
  let t = Interp.trace layout program in
  Array.stable_sort Int.compare t;
  t

(* Every registry program at a reduced size: cheap to validate, trace
   or simulate, but still exercising each kernel's full structure. *)
let small_build (e : Mlc_kernels.Registry.entry) =
  match e.Mlc_kernels.Registry.build_sized with
  | Some f ->
      let size =
        match e.Mlc_kernels.Registry.name with
        | "ADI32" | "ERLE64" | "EXPL512" | "JACOBI512" | "SHAL512" | "LINPACKD"
        | "HYDRO2D" | "SWIM" | "TOMCATV" | "SU2COR" ->
            32
        | "APPBT" | "APPLU" | "APPSP" | "MGRID" | "TURB3D" | "APSI" -> 8
        | "DOT256" | "IRR500K" | "BUK" | "CGM" | "EMBAR" | "WAVE5" | "FPPPP" -> 64
        | "FFTPDE" -> 256
        | _ -> 16
      in
      f size
  | None -> e.Mlc_kernels.Registry.build ()
