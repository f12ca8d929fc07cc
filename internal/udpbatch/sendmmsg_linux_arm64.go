package udpbatch

import "syscall"

// sysSendmmsg is sendmmsg(2)'s number.
const sysSendmmsg = syscall.SYS_SENDMMSG
