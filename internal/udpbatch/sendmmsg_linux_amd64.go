package udpbatch

// sysSendmmsg is sendmmsg(2)'s number: package syscall does not name it on
// amd64.
const sysSendmmsg = 307
