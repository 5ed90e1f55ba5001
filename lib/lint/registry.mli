(** [registry-exhaustive]: the protocol registry must reach every
    dispatch.  {!check_catch_all} flags catch-all patterns in
    multi-case matches whose patterns have the registry type. *)

val check_catch_all : path:string -> Typedtree.structure -> Kernel.finding list
