#include "mpi/msg_plane.hpp"

#include <array>

#include "mpi/runtime.hpp"

namespace dkf::mpi {

MsgPlane::Phase MsgPlane::classify(const Request& r) {
  if (r.kind == Request::Kind::Send) {
    if (!r.pack_done) return Phase::Idle;  // the DDT engine owns it
    switch (r.protocol) {
      case Protocol::Eager:
        return Phase::SendEager;
      case Protocol::RGet:
        return Phase::SendRget;
      case Protocol::RPut:
        return Phase::SendRput;
      case Protocol::DirectIpc:
        return Phase::SendDirect;
    }
    return Phase::Idle;
  }
  if (r.direct_retry) return Phase::RecvDirectRetry;
  if (r.rget_sender && !r.data_delivered) return Phase::RecvRgetRetry;
  return Phase::Idle;
}

bool MsgPlane::advance(Proc& p, const RequestPtr& req) {
  if (req->complete) return true;

  if (req->ticket_pending && p.engine_->done(req->ticket)) {
    req->ticket_pending = false;
    if (req->kind == Request::Kind::Send) {
      req->pack_done = true;  // fall through to the protocol phase below
    } else {
      p.finishTicketedRecv(req);
      return true;
    }
  }

  const Phase phase = classify(*req);
  if (phase == Phase::RecvDirectRetry) return false;

  static constexpr std::array<Handler,
                              static_cast<std::size_t>(Phase::Count)>
      kHandlers{
          &MsgPlane::idle,           // Idle
          &MsgPlane::sendEager,      // SendEager
          &MsgPlane::sendRget,       // SendRget
          &MsgPlane::sendRput,       // SendRput
          &MsgPlane::sendDirect,     // SendDirect
          &MsgPlane::recvRgetRetry,  // RecvRgetRetry
          &MsgPlane::idle,           // RecvDirectRetry (handled above)
      };
  kHandlers[static_cast<std::size_t>(phase)](p, req);
  return true;
}

// Each handler mirrors one arm of the seed coroutine's protocol switch
// exactly — same actions, same order — minus the frame.

void MsgPlane::idle(Proc&, const RequestPtr&) {}

void MsgPlane::sendEager(Proc& p, const RequestPtr& req) {
  if (!req->data_in_flight) {
    p.issueEagerData(req);
  } else if (!req->complete && p.retransDue(req)) {
    p.sendEagerOnWire(req);  // un-ACKed: back on the wire
  }
}

void MsgPlane::sendRget(Proc& p, const RequestPtr& req) {
  if (!req->rts_sent) {
    p.issueRts(req);
  } else if (!req->complete && p.retransDue(req)) {
    p.sendRtsOnWire(req);  // RTS (or its FIN) was lost
  }
}

void MsgPlane::sendRput(Proc& p, const RequestPtr& req) {
  if (!req->cts_received) {
    if (req->rts_sent && p.retransDue(req)) p.sendRtsOnWire(req);
  } else if (!req->data_in_flight) {
    req->data_in_flight = true;
    p.issueRputData(req);
    p.armRetrans(req);  // data phase gets its own (fresh) backoff
  } else if (!req->data_delivered && p.retransDue(req)) {
    p.issueRputData(req);  // the RDMA write was dropped
  }
  if (req->data_delivered && !req->complete) {
    if (req->staging_owned) {
      p.freeDevice(req->staging);
      req->staging_owned = false;
    }
    req->paired.reset();
    req->retrans_deadline = 0;
    p.releaseSendToken(*req);
    p.noteComplete(*req);
  }
}

void MsgPlane::sendDirect(Proc& p, const RequestPtr& req) {
  // Receiver-driven; FIN completes us. A lost RTS or FIN surfaces as a
  // timeout here, and the receiver answers duplicates idempotently.
  if (!req->complete && p.retransDue(req)) p.sendRtsOnWire(req);
}

void MsgPlane::recvRgetRetry(Proc& p, const RequestPtr& req) {
  if (p.retransDue(req)) {
    p.issueRgetRead(req, req->rget_sender);  // the RDMA read was dropped
  }
}

}  // namespace dkf::mpi
