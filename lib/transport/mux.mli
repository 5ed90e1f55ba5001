(** Per-node unicast demultiplexer.

    [Node.set_unicast_handler] installs a single callback; transport
    endpoints share the node by registering through a mux instead, each
    handler claiming the packets it understands. *)

type t

val of_node : Mcc_net.Node.t -> t
(** Returns the node's mux, installing one on first use.  Calling
    [Node.set_unicast_handler] directly afterwards would bypass it.
    The mux is stored on the node itself (a {!Mcc_net.Node.attachment}),
    so the lookup does not depend on how many nodes exist and the mux
    is collected with its node. *)

val add_handler : t -> (Mcc_net.Packet.t -> bool) -> unit
(** Handlers are tried in registration order until one returns [true]. *)
