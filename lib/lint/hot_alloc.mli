(** [hot-alloc]: allocation analysis over functions marked [[@hot]].

    A binding carrying the [[@hot]] attribute declares its body
    allocation-free; this rule walks the typed body and flags closure,
    tuple, record, array, constructor, polymorphic-variant and lazy
    construction, partial applications (detected by the application's
    result type being an arrow, which survives optional-argument
    erasure, and is not flagged when the named callee's declared type
    takes no more arguments than were given), calls to known allocating
    stdlib entry points, and a float stored into a mutable float field
    of a record that is not all-float (the store boxes it).  Nested
    closure bodies and [assert] payloads are not walked.  Known blind
    spots: other float boxing (arguments and results of calls that are
    not inlined) and allocation hidden inside callees off the known
    list. *)

val check : path:string -> Typedtree.structure -> Kernel.finding list
(** [check ~path str] — [path] is used verbatim in findings. *)
