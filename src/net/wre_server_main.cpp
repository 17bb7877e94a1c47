// wre_server: hosts one sql::Database over TCP, speaking the binary wire
// protocol. This is the deployable split of the paper's model — the server
// process is an ordinary database that stores tag integers and ciphertext
// blobs; every cryptographic operation stays in the client process
// (RemoteConnection + EncryptedConnection).
//
// Usage:
//   wre_server --dir=/path/to/db [--host=127.0.0.1] [--port=7433]
//              [--threads=0] [--read-timeout-ms=60000] [--max-frame-mb=64]
//              [--wal=1] [--checkpoint-interval-ms=60000]
//              [--max-connections=0] [--request-deadline-ms=0]
//              [--columnar=0]
//
// Every integer flag is range-checked against the option it sets: a
// negative value, or one the option cannot hold (say
// --checkpoint-interval-ms=4294967296, which would wrap to 0 and turn
// checkpoints off), exits 2 with the usage text, as an unknown flag does.
//
// Multi-tenancy: one wre_server serves any number of tenants over a shared
// table — clients stamp a tenant id into each request (scoping the
// idempotency cache) and hold per-tenant keys (crypto::TenantKeyring), so
// tag namespaces are cryptographically disjoint without server-side
// configuration.
//
// Overload protection: --max-connections caps live sessions (0 = unlimited;
// extras are shed with a retryable overloaded error) and
// --request-deadline-ms bounds how long any request may wait for the
// database lock before being shed (0 = no bound). Clients with retry
// enabled back off and try again on either.
//
// Durability is on by default: writes are group-committed to a WAL before
// they are acknowledged, crash recovery replays the log before the listener
// opens, and a background thread checkpoints every --checkpoint-interval-ms
// to bound replay time (0 disables the timer; --wal=0 disables logging
// entirely and restores the old checkpoint-on-SIGTERM behaviour).
//
// The bound port is printed as "LISTENING <port>" on stdout once the server
// is ready (useful with --port=0 for tests). SIGTERM or SIGINT triggers a
// graceful drain: in-flight requests finish, sessions close, the database
// checkpoints, and the process exits 0.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/net/server.h"
#include "src/sql/database.h"

namespace {

// Self-pipe so the signal handler stays async-signal-safe: the handler only
// write()s one byte; the main thread blocks in poll() until it arrives.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  uint8_t byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

constexpr long kIntMax = std::numeric_limits<int>::max();
constexpr long kUnsignedMax = std::numeric_limits<unsigned>::max();
constexpr long kU32Max = std::numeric_limits<uint32_t>::max();

struct Flags {
  std::string dir;
  std::string host = "127.0.0.1";
  long port = 7433;
  long threads = 0;
  long read_timeout_ms = 60000;
  long max_frame_mb = 64;
  long wal = 1;
  long checkpoint_interval_ms = 60000;
  long max_connections = 0;
  long request_deadline_ms = 0;
  long columnar = 0;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "wre_server: %s\n"
               "usage: wre_server --dir=PATH [--host=ADDR] [--port=N]\n"
               "                  [--threads=N] [--read-timeout-ms=N]\n"
               "                  [--max-frame-mb=N] [--wal=0|1]\n"
               "                  [--checkpoint-interval-ms=N]\n"
               "                  [--max-connections=N] [--request-deadline-ms=N]\n"
               "                  [--columnar=0|1]\n",
               message.c_str());
  std::exit(2);
}

/// Parses `text` as an integer in [lo, hi]: the range of the option the
/// flag sets, so no value is silently truncated on the way there.
long parse_long(const std::string& flag, const std::string& text, long lo,
                long hi) {
  long v = 0;
  try {
    size_t end = 0;
    v = std::stol(text, &end);
    if (end != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    usage_error("flag " + flag + " needs an integer, got '" + text + "'");
  }
  if (v < lo || v > hi) {
    usage_error("flag " + flag + " must be in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got " + text);
  }
  return v;
}

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage_error("expected --flag=value, got '" + arg + "'");
    }
    std::string key = arg.substr(0, eq);
    std::string val = arg.substr(eq + 1);
    if (key == "--dir") {
      flags.dir = val;
    } else if (key == "--host") {
      flags.host = val;
    } else if (key == "--port") {
      flags.port = parse_long(key, val, 0, 65535);
    } else if (key == "--threads") {
      flags.threads = parse_long(key, val, 0, kUnsignedMax);
    } else if (key == "--read-timeout-ms") {
      flags.read_timeout_ms = parse_long(key, val, 0, kIntMax);
    } else if (key == "--max-frame-mb") {
      // A frame's length field is a u32, so the cap stays below 4 GiB.
      flags.max_frame_mb = parse_long(key, val, 1, kU32Max >> 20);
    } else if (key == "--wal") {
      flags.wal = parse_long(key, val, 0, 1);
    } else if (key == "--checkpoint-interval-ms") {
      flags.checkpoint_interval_ms = parse_long(key, val, 0, kU32Max);
    } else if (key == "--max-connections") {
      flags.max_connections =
          parse_long(key, val, 0, std::numeric_limits<long>::max());
    } else if (key == "--request-deadline-ms") {
      flags.request_deadline_ms = parse_long(key, val, 0, kU32Max);
    } else if (key == "--columnar") {
      flags.columnar = parse_long(key, val, 0, 1);
    } else {
      usage_error("unknown flag '" + key + "'");
    }
  }
  if (flags.dir.empty()) usage_error("--dir is required");
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = parse_flags(argc, argv);

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("wre_server: pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    wre::sql::DatabaseOptions db_options;
    db_options.durability = flags.wal != 0;
    // Columnar segments live only in memory, so enabling this after crash
    // recovery is always safe: the store starts empty and builds fresh
    // segments from the recovered heaps on first use (DESIGN.md §5.9).
    db_options.columnar = flags.columnar != 0;
    // Recovery (if there is a leftover WAL) runs inside this constructor —
    // strictly before the listener opens, so a client can never observe
    // pre-recovery state.
    wre::sql::Database db(flags.dir, db_options);
    const auto& rec = db.recovery_stats();
    if (rec.segments_scanned > 0) {
      std::fprintf(stderr,
                   "wre_server: recovery replayed %llu commit(s), "
                   "%llu page(s), %llu catalog update(s)%s%s\n",
                   static_cast<unsigned long long>(rec.commits_applied),
                   static_cast<unsigned long long>(rec.pages_replayed),
                   static_cast<unsigned long long>(rec.catalogs_replayed),
                   rec.tail_truncated ? "; corrupt tail truncated" : "",
                   rec.uncommitted_records_discarded > 0
                       ? "; uncommitted tail discarded"
                       : "");
    }

    wre::net::ServerOptions options;
    options.host = flags.host;
    options.port = static_cast<uint16_t>(flags.port);
    options.worker_threads = static_cast<unsigned>(flags.threads);
    options.read_timeout_ms = static_cast<int>(flags.read_timeout_ms);
    options.max_frame_bytes = static_cast<size_t>(flags.max_frame_mb) << 20;
    options.checkpoint_interval_ms =
        flags.wal != 0 ? static_cast<uint32_t>(flags.checkpoint_interval_ms)
                       : 0;
    options.max_connections = static_cast<size_t>(flags.max_connections);
    options.request_deadline_ms =
        static_cast<uint32_t>(flags.request_deadline_ms);

    wre::net::Server server(db, options);
    server.start();
    std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    // Wait for SIGTERM/SIGINT.
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
    }

    std::fprintf(stderr, "wre_server: draining...\n");
    server.stop();
    db.checkpoint();
    std::fprintf(stderr,
                 "wre_server: served %llu frames over %llu sessions "
                 "(%llu protocol errors, %llu background checkpoints)\n",
                 static_cast<unsigned long long>(server.frames_served()),
                 static_cast<unsigned long long>(server.sessions_accepted()),
                 static_cast<unsigned long long>(server.protocol_errors()),
                 static_cast<unsigned long long>(server.checkpoints()));
    std::fprintf(stderr,
                 "wre_server: fault tolerance: %llu sessions shed, "
                 "%llu deadline rejects, %llu dedup replays, "
                 "%llu accept retries\n",
                 static_cast<unsigned long long>(server.sessions_shed()),
                 static_cast<unsigned long long>(server.deadline_rejects()),
                 static_cast<unsigned long long>(server.dedup_hits()),
                 static_cast<unsigned long long>(server.accept_retries()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wre_server: fatal: %s\n", e.what());
    return 1;
  }
}
