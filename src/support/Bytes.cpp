//===--- support/Bytes.cpp - Byte codec, CRC32 and durable file IO --------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Bytes.h"

#include "support/FaultInjection.h"

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ptran;

uint32_t ptran::crc32(const uint8_t *Data, size_t Len) {
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t State = 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I)
    State = Table[(State ^ Data[I]) & 0xFFu] ^ (State >> 8);
  return State ^ 0xFFFFFFFFu;
}

//===--- ByteWriter / ByteReader ------------------------------------------===//

void ByteWriter::putU32(uint32_t V) {
  uint8_t B[4];
  storeLE32(B, V);
  putBytes(B, sizeof(B));
}

void ByteWriter::putU64(uint64_t V) {
  uint8_t B[8];
  storeLE64(B, V);
  putBytes(B, sizeof(B));
}

void ByteWriter::putF64(double V) { putU64(std::bit_cast<uint64_t>(V)); }

void ByteWriter::putStr(const std::string &S) {
  putU32(static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

void ByteWriter::putStrs(const std::vector<std::string> &Strs) {
  putU32(static_cast<uint32_t>(Strs.size()));
  for (const std::string &S : Strs)
    putStr(S);
}

bool ByteReader::require(uint64_t N) {
  if (!Good || N > Len - Pos) {
    Good = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::getU8() {
  if (!require(1))
    return 0;
  return Data[Pos++];
}

uint32_t ByteReader::getU32() {
  if (!require(4))
    return 0;
  uint32_t V = loadLE32(Data + Pos);
  Pos += 4;
  return V;
}

uint64_t ByteReader::getU64() {
  if (!require(8))
    return 0;
  uint64_t V = loadLE64(Data + Pos);
  Pos += 8;
  return V;
}

double ByteReader::getF64() { return std::bit_cast<double>(getU64()); }

std::string ByteReader::getStr() {
  uint32_t N = getU32();
  if (!require(N))
    return {};
  std::string S(reinterpret_cast<const char *>(Data + Pos), N);
  Pos += N;
  return S;
}

std::vector<std::string> ByteReader::getStrs() {
  std::vector<std::string> Strs;
  uint32_t N = getU32();
  for (uint32_t I = 0; ok() && I < N; ++I)
    Strs.push_back(getStr());
  return Strs;
}

std::vector<uint8_t> ByteReader::getBytes(uint64_t N) {
  if (!require(N))
    return {};
  std::vector<uint8_t> B(Data + Pos, Data + Pos + N);
  Pos += N;
  return B;
}

//===--- durable file IO --------------------------------------------------===//

std::string ptran::errnoString(const char *What, const std::string &Path) {
  std::string S = What;
  if (!Path.empty())
    S += " '" + Path + "'";
  return S + ": " + std::strerror(errno);
}

bool ptran::writeAll(int Fd, uint64_t Offset, const uint8_t *Data,
                     size_t Size, const std::string &Path,
                     std::string &Error) {
  while (Size > 0) {
    size_t Want = FaultInjection::maybeShortWrite(Size);
    ssize_t N = ::pwrite(Fd, Data, Want, static_cast<off_t>(Offset));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("write", Path);
      return false;
    }
    Offset += static_cast<uint64_t>(N);
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool ptran::fsyncFile(int Fd, const std::string &Path, std::string &Error) {
  int Rc;
  do {
    Rc = ::fsync(Fd);
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0) {
    Error = errnoString("fsync", Path);
    return false;
  }
  return true;
}

bool ptran::readWholeFile(int Fd, const std::string &Path,
                          std::vector<uint8_t> &Out, std::string &Error) {
  struct stat St;
  if (::fstat(Fd, &St) < 0) {
    Error = errnoString("stat", Path);
    return false;
  }
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Got = 0;
  while (Got < Out.size()) {
    ssize_t N = ::pread(Fd, Out.data() + Got, Out.size() - Got,
                        static_cast<off_t>(Got));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("read", Path);
      return false;
    }
    if (N == 0)
      break; // The file shrank under us; trust what we got.
    Got += static_cast<size_t>(N);
  }
  Out.resize(Got);
  return true;
}

bool ptran::readWholeFile(const std::string &Path, std::vector<uint8_t> &Out,
                          std::string &Error) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Error = errnoString("open", Path);
    return false;
  }
  bool Ok = readWholeFile(Fd, Path, Out, Error);
  ::close(Fd);
  return Ok;
}

/// fsyncs the directory containing \p Path, making a rename in it durable.
static bool fsyncParentDir(const std::string &Path, std::string &Error) {
  size_t Slash = Path.rfind('/');
  std::string Dir =
      Slash == std::string::npos ? "." : Path.substr(0, Slash ? Slash : 1);
  int D = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (D < 0) {
    Error = errnoString("open directory", Dir);
    return false;
  }
  bool Ok = fsyncFile(D, Dir, Error);
  ::close(D);
  return Ok;
}

bool ptran::writeFileAtomically(const std::string &Path, const uint8_t *Data,
                                size_t Size, std::string &Error,
                                const char *CrashPoint) {
  std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
  if (Fd < 0) {
    Error = errnoString("open", Tmp);
    return false;
  }
  bool Ok = writeAll(Fd, 0, Data, Size, Tmp, Error) &&
            fsyncFile(Fd, Tmp, Error);
  ::close(Fd);
  if (!Ok) {
    ::unlink(Tmp.c_str());
    return false;
  }
  if (CrashPoint && FaultInjection::maybeCrashAt(CrashPoint))
    FaultInjection::dieAtCrashPoint();
  if (::rename(Tmp.c_str(), Path.c_str()) < 0) {
    Error = errnoString("rename", Tmp);
    ::unlink(Tmp.c_str());
    return false;
  }
  return fsyncParentDir(Path, Error);
}
