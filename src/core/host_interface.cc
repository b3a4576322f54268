// The Faaslet host interface (Table 2), exposed to wasm functions as imports
// under the "faasm" module. This layer operates outside guest memory safety
// and is therefore paranoid: every guest pointer/length pair is bounds
// checked against the Faaslet's linear memory before use, and every failure
// surfaces as a trap, never as undefined behaviour.
#include <cstring>

#include "core/faaslet.h"

namespace faasm {

namespace {

using wasm::HostFn;
using wasm::Instance;
using wasm::MakeI32;
using wasm::MakeI64;
using wasm::ValType;
using wasm::Value;

Result<std::string> GuestString(Faaslet& faaslet, uint32_t ptr, uint32_t len) {
  if (!faaslet.memory().InBounds(ptr, len)) {
    return OutOfRange("guest string out of bounds");
  }
  return std::string(reinterpret_cast<const char*>(faaslet.memory().base() + ptr), len);
}

Result<Bytes> GuestBytes(Faaslet& faaslet, uint32_t ptr, uint32_t len) {
  if (!faaslet.memory().InBounds(ptr, len)) {
    return OutOfRange("guest buffer out of bounds");
  }
  const uint8_t* base = faaslet.memory().base() + ptr;
  return Bytes(base, base + len);
}

// A guest output buffer, bounds checked before the host allocates its
// staging copy: a hostile length must trap, not reserve gigabytes.
Result<Bytes> GuestOutputBuffer(Faaslet& faaslet, uint32_t ptr, uint32_t len) {
  if (!faaslet.memory().InBounds(ptr, len)) {
    return OutOfRange("guest buffer out of bounds");
  }
  return Bytes(len);
}

// Copies up to buf_len bytes of `data` into the guest; returns bytes copied.
Result<uint32_t> CopyToGuest(Faaslet& faaslet, const Bytes& data, uint32_t ptr,
                             uint32_t buf_len) {
  const uint32_t n = static_cast<uint32_t>(std::min<size_t>(data.size(), buf_len));
  FAASM_RETURN_IF_ERROR(faaslet.memory().Write(ptr, data.data(), n));
  return n;
}

// A state key named by a guest string; the runtime's own keys are refused.
Result<std::string> GuestKey(Faaslet& faaslet, uint32_t ptr, uint32_t len) {
  FAASM_ASSIGN_OR_RETURN(std::string key, GuestString(faaslet, ptr, len));
  if (IsReservedStateKey(key)) {
    return PermissionDenied("state key reserved by the runtime: " + key);
  }
  return key;
}

// The replica of the state key named by a guest string.
Result<std::shared_ptr<StateKeyValue>> GuestState(Faaslet& faaslet, uint32_t ptr, uint32_t len) {
  FAASM_ASSIGN_OR_RETURN(std::string key, GuestKey(faaslet, ptr, len));
  return faaslet.state().Lookup(key);
}

}  // namespace

void RegisterHostInterface(Faaslet& faaslet, wasm::MapImportResolver& resolver) {
  Faaslet* f = &faaslet;
  const std::vector<ValType> i32 = {ValType::kI32};
  (void)i32;

  auto reg = [&resolver](const std::string& name, HostFn fn) {
    resolver.Register("faasm", name, std::move(fn));
  };

  // --- Calls -------------------------------------------------------------------
  reg("input_size", [f](Instance&, const Value*, size_t, Value* results) {
    results[0] = MakeI32(static_cast<uint32_t>(f->Input().size()));
    return OkStatus();
  });

  reg("read_input", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(uint32_t n, CopyToGuest(*f, f->Input(), args[0].i32, args[1].i32));
    results[0] = MakeI32(n);
    return OkStatus();
  });

  reg("write_output", [f](Instance&, const Value* args, size_t, Value*) {
    FAASM_ASSIGN_OR_RETURN(Bytes output, GuestBytes(*f, args[0].i32, args[1].i32));
    f->WriteOutput(std::move(output));
    return OkStatus();
  });

  reg("chain_call", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(std::string name, GuestString(*f, args[0].i32, args[1].i32));
    FAASM_ASSIGN_OR_RETURN(Bytes input, GuestBytes(*f, args[2].i32, args[3].i32));
    FAASM_ASSIGN_OR_RETURN(uint64_t id, f->ChainCall(name, std::move(input)));
    results[0] = MakeI64(id);
    return OkStatus();
  });

  reg("await_call", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(int code, f->AwaitCall(args[0].i64));
    results[0] = MakeI32(static_cast<uint32_t>(code));
    return OkStatus();
  });

  reg("get_call_output", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(Bytes output, f->GetCallOutput(args[0].i64));
    FAASM_ASSIGN_OR_RETURN(uint32_t n, CopyToGuest(*f, output, args[1].i32, args[2].i32));
    results[0] = MakeI32(n);
    return OkStatus();
  });

  // --- State ---------------------------------------------------------------------
  reg("get_state", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(std::string key, GuestKey(*f, args[0].i32, args[1].i32));
    FAASM_ASSIGN_OR_RETURN(uint32_t offset, f->MapStateIntoGuest(key, args[2].i32));
    results[0] = MakeI32(offset);
    return OkStatus();
  });

  reg("set_state", [f](Instance&, const Value* args, size_t, Value*) {
    FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
    FAASM_ASSIGN_OR_RETURN(Bytes data, GuestBytes(*f, args[2].i32, args[3].i32));
    FAASM_RETURN_IF_ERROR(f->local_locks().CheckNoSelfWait(*kv, /*write=*/true));
    FAASM_RETURN_IF_ERROR(kv->EnsureCapacity(data.size()));
    // WritableData may pull boundary pages, so take it before the local lock.
    uint8_t* dst = kv->WritableData(0, data.size());  // marks pages for delta push
    if (dst == nullptr) {
      return Internal("set_state: replica write failed");
    }
    kv->LockWrite();
    std::memcpy(dst, data.data(), data.size());
    kv->UnlockWrite();
    // Re-mark now that the bytes have landed, in case a concurrent push
    // collected the WritableData mark while the copy was in flight.
    kv->MarkDirty(0, data.size());
    return OkStatus();
  });

  // A pull that must fetch copies in under the local write lock, and a push
  // reads the replica under the read lock: neither may wait on a lock the
  // call holds itself.
  reg("pull_state", [f](Instance&, const Value* args, size_t, Value*) {
    FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
    return kv->Pull(f->local_locks().Holds(*kv));
  });

  reg("push_state", [f](Instance&, const Value* args, size_t, Value*) {
    FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
    FAASM_RETURN_IF_ERROR(f->local_locks().CheckNoSelfWait(*kv, /*write=*/false));
    return kv->Push();
  });

  reg("pull_state_offset", [f](Instance&, const Value* args, size_t, Value*) {
    FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
    return kv->PullChunk(args[2].i32, args[3].i32, f->local_locks().Holds(*kv));
  });

  reg("push_state_offset", [f](Instance&, const Value* args, size_t, Value*) {
    FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
    FAASM_RETURN_IF_ERROR(f->local_locks().CheckNoSelfWait(*kv, /*write=*/false));
    return kv->PushChunk(args[2].i32, args[3].i32);
  });

  reg("append_state", [f](Instance&, const Value* args, size_t, Value*) {
    FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
    FAASM_ASSIGN_OR_RETURN(Bytes data, GuestBytes(*f, args[2].i32, args[3].i32));
    return kv->Append(data);
  });

  // The local locks go through the call's held set (HeldLocalLocks); the
  // global ones through the global tier.
  for (const bool write : {false, true}) {
    const std::string kind = write ? "write" : "read";
    reg("lock_state_" + kind, [f, write](Instance&, const Value* args, size_t, Value*) {
      FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
      return f->local_locks().Lock(std::move(kv), write);
    });
    reg("unlock_state_" + kind, [f, write](Instance&, const Value* args, size_t, Value*) {
      FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
      return f->local_locks().Unlock(*kv, write);
    });
    reg("lock_state_global_" + kind, [f, write](Instance&, const Value* args, size_t, Value*) {
      FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
      return write ? kv->LockGlobalWrite() : kv->LockGlobalRead();
    });
    reg("unlock_state_global_" + kind, [f, write](Instance&, const Value* args, size_t, Value*) {
      FAASM_ASSIGN_OR_RETURN(auto kv, GuestState(*f, args[0].i32, args[1].i32));
      return write ? kv->UnlockGlobalWrite() : kv->UnlockGlobalRead();
    });
  }

  // --- Memory ---------------------------------------------------------------------
  // sbrk(bytes): grows the private region by whole wasm pages; returns the
  // previous memory end in bytes. Fails (traps) past the function's limit.
  reg("sbrk", [f](Instance&, const Value* args, size_t, Value* results) {
    const uint32_t old_end = static_cast<uint32_t>(f->memory().size_bytes());
    const uint32_t bytes = args[0].i32;
    if (bytes > 0) {
      const uint32_t pages = (bytes + kWasmPageBytes - 1) / kWasmPageBytes;
      if (f->memory().Grow(pages) == UINT32_MAX) {
        return ResourceExhausted("sbrk: function memory limit exceeded");
      }
    }
    results[0] = MakeI32(old_end);
    return OkStatus();
  });

  // --- Networking ---------------------------------------------------------------------
  reg("socket", [f](Instance&, const Value*, size_t, Value* results) {
    results[0] = MakeI32(static_cast<uint32_t>(f->SocketOpen()));
    return OkStatus();
  });
  reg("connect", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(std::string host, GuestString(*f, args[1].i32, args[2].i32));
    Status status = f->SocketConnect(static_cast<int>(args[0].i32), host);
    results[0] = MakeI32(status.ok() ? 0 : static_cast<uint32_t>(-1));
    return OkStatus();
  });
  reg("send", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(Bytes data, GuestBytes(*f, args[1].i32, args[2].i32));
    auto sent = f->SocketSend(static_cast<int>(args[0].i32), data.data(), data.size());
    if (!sent.ok()) {
      return sent.status();
    }
    results[0] = MakeI32(static_cast<uint32_t>(sent.value()));
    return OkStatus();
  });
  reg("recv", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(Bytes buffer, GuestOutputBuffer(*f, args[1].i32, args[2].i32));
    auto received = f->SocketRecv(static_cast<int>(args[0].i32), buffer.data(), buffer.size());
    if (!received.ok()) {
      return received.status();
    }
    FAASM_RETURN_IF_ERROR(f->memory().Write(args[1].i32, buffer.data(), received.value()));
    results[0] = MakeI32(static_cast<uint32_t>(received.value()));
    return OkStatus();
  });
  reg("socket_close", [f](Instance&, const Value* args, size_t, Value* results) {
    results[0] = MakeI32(f->SocketClose(static_cast<int>(args[0].i32)).ok() ? 0
                                                                            : static_cast<uint32_t>(-1));
    return OkStatus();
  });

  // --- File I/O -----------------------------------------------------------------------
  reg("open", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(std::string path, GuestString(*f, args[0].i32, args[1].i32));
    auto fd = f->vfs().Open(path, static_cast<int>(args[2].i32));
    results[0] = MakeI32(fd.ok() ? static_cast<uint32_t>(fd.value()) : static_cast<uint32_t>(-1));
    return OkStatus();
  });
  reg("read", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(Bytes buffer, GuestOutputBuffer(*f, args[1].i32, args[2].i32));
    auto n = f->vfs().Read(static_cast<int>(args[0].i32), buffer.data(), buffer.size());
    if (!n.ok()) {
      return n.status();
    }
    FAASM_RETURN_IF_ERROR(f->memory().Write(args[1].i32, buffer.data(), n.value()));
    results[0] = MakeI32(static_cast<uint32_t>(n.value()));
    return OkStatus();
  });
  reg("write", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(Bytes data, GuestBytes(*f, args[1].i32, args[2].i32));
    auto n = f->vfs().Write(static_cast<int>(args[0].i32), data.data(), data.size());
    if (!n.ok()) {
      return n.status();
    }
    results[0] = MakeI32(static_cast<uint32_t>(n.value()));
    return OkStatus();
  });
  reg("close", [f](Instance&, const Value* args, size_t, Value* results) {
    results[0] =
        MakeI32(f->vfs().Close(static_cast<int>(args[0].i32)).ok() ? 0 : static_cast<uint32_t>(-1));
    return OkStatus();
  });
  reg("dup", [f](Instance&, const Value* args, size_t, Value* results) {
    auto fd = f->vfs().Dup(static_cast<int>(args[0].i32));
    results[0] = MakeI32(fd.ok() ? static_cast<uint32_t>(fd.value()) : static_cast<uint32_t>(-1));
    return OkStatus();
  });
  reg("seek", [f](Instance&, const Value* args, size_t, Value* results) {
    auto pos = f->vfs().Seek(static_cast<int>(args[0].i32), args[1].i32);
    results[0] =
        MakeI32(pos.ok() ? static_cast<uint32_t>(pos.value()) : static_cast<uint32_t>(-1));
    return OkStatus();
  });
  reg("stat_size", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(std::string path, GuestString(*f, args[0].i32, args[1].i32));
    auto stat = f->vfs().StatPath(path);
    results[0] = MakeI32(stat.ok() ? static_cast<uint32_t>(stat.value().size)
                                   : static_cast<uint32_t>(-1));
    return OkStatus();
  });

  // --- Dynamic linking -------------------------------------------------------------------
  reg("dlopen", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(std::string path, GuestString(*f, args[0].i32, args[1].i32));
    auto handle = f->DlOpen(path);
    results[0] = MakeI32(handle.ok() ? handle.value() : static_cast<uint32_t>(-1));
    return OkStatus();
  });
  reg("dlsym", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(std::string name, GuestString(*f, args[1].i32, args[2].i32));
    auto symbol = f->DlSym(args[0].i32, name);
    results[0] = MakeI32(symbol.ok() ? symbol.value() : static_cast<uint32_t>(-1));
    return OkStatus();
  });
  reg("dyn_call", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(int32_t out, f->DynCall(args[0].i32, static_cast<int32_t>(args[1].i32)));
    results[0] = MakeI32(static_cast<uint32_t>(out));
    return OkStatus();
  });
  reg("dlclose", [f](Instance&, const Value* args, size_t, Value* results) {
    results[0] = MakeI32(f->DlClose(args[0].i32).ok() ? 0 : static_cast<uint32_t>(-1));
    return OkStatus();
  });

  // --- Misc ---------------------------------------------------------------------------------
  reg("gettime", [f](Instance&, const Value*, size_t, Value* results) {
    results[0] = MakeI64(static_cast<uint64_t>(f->MonotonicTimeNs()));
    return OkStatus();
  });
  reg("getrandom", [f](Instance&, const Value* args, size_t, Value* results) {
    FAASM_ASSIGN_OR_RETURN(Bytes buffer, GuestOutputBuffer(*f, args[0].i32, args[1].i32));
    for (auto& byte : buffer) {
      byte = static_cast<uint8_t>(f->rng().NextU64());
    }
    FAASM_RETURN_IF_ERROR(f->memory().Write(args[0].i32, buffer.data(), buffer.size()));
    results[0] = MakeI32(static_cast<uint32_t>(buffer.size()));
    return OkStatus();
  });
}

}  // namespace faasm
