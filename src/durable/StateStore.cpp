//===--- durable/StateStore.cpp - Crash-safe daemon state store -----------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "durable/StateStore.h"

#include "support/Bytes.h"

#include <algorithm>
#include <cerrno>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;

namespace {

bool isSnapshotName(const std::string &Name) {
  return Name.size() > 5 && Name.compare(0, 5, "snap-") == 0 &&
         Name.compare(Name.size() - 5, 5, ".snap") == 0;
}

/// Lists the state directory once; recovery and pruning both want the
/// same view.
bool listDir(const std::string &Dir, std::vector<std::string> &Names,
             std::string &Error) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    Error = errnoString("open directory", Dir);
    return false;
  }
  while (struct dirent *E = ::readdir(D))
    Names.push_back(E->d_name);
  ::closedir(D);
  std::sort(Names.begin(), Names.end());
  return true;
}

} // namespace

std::unique_ptr<StateStore> StateStore::open(const std::string &Dir,
                                             FsyncPolicy Fsync,
                                             Recovery &Recovered,
                                             std::string &Error) {
  Recovered = Recovery();
  if (::mkdir(Dir.c_str(), 0755) < 0 && errno != EEXIST) {
    Error = errnoString("create state directory", Dir);
    return nullptr;
  }

  auto Store = std::unique_ptr<StateStore>(new StateStore());
  Store->Dir = Dir;

  std::vector<std::string> Names;
  if (!listDir(Dir, Names, Error))
    return nullptr;

  for (const std::string &Name : Names) {
    std::string Path = Dir + "/" + Name;
    // A crash between writing `snap-X.snap.tmp` and renaming it leaves
    // the tmp file behind; its content was never committed, drop it.
    if (Name.size() > 4 &&
        Name.compare(Name.size() - 4, 4, ".tmp") == 0) {
      ::unlink(Path.c_str());
      continue;
    }
    if (!isSnapshotName(Name))
      continue;
    RecoveredSession RS;
    std::string SnapError;
    if (readSnapshotFile(Path, RS.State, RS.Watermark, SnapError)) {
      Recovered.Snapshots.push_back(std::move(RS));
      continue;
    }
    // A snapshot that fails verification must not block recovery of the
    // rest of the store: move it aside for post-mortems and report it.
    // Its session comes back from whatever journal records survive.
    std::string Aside = Path + ".corrupt";
    ::rename(Path.c_str(), Aside.c_str());
    Recovered.SnapshotDiagnostics.push_back(
        "snapshot " + Name + " failed verification (" + SnapError +
        "); moved aside to " + Aside);
  }

  Store->J = DeltaJournal::open(Dir + "/journal.ptwj", Fsync,
                                Recovered.JournalReport, &Recovered.Records,
                                Error);
  if (!Store->J)
    return nullptr;
  return Store;
}

bool StateStore::writeSnapshot(const DurableSessionState &State,
                               uint64_t Watermark, std::string &Error) {
  return writeSnapshotFile(Dir, State, Watermark, Error);
}

bool StateStore::pruneSnapshotsExcept(
    const std::set<std::string> &ResidentNames, std::string &Error) {
  std::set<std::string> Keep;
  for (const std::string &Session : ResidentNames)
    Keep.insert(snapshotFileName(Session));

  std::vector<std::string> Names;
  if (!listDir(Dir, Names, Error))
    return false;
  for (const std::string &Name : Names) {
    if (!isSnapshotName(Name) || Keep.count(Name))
      continue;
    std::string Path = Dir + "/" + Name;
    if (::unlink(Path.c_str()) < 0 && errno != ENOENT) {
      Error = errnoString("prune snapshot", Path);
      return false;
    }
  }
  return true;
}
