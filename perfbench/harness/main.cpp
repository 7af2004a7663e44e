//===--- perfbench/harness/main.cpp - Harness entry point -----------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace perfbench;

Args::Args(int Argc, char **Argv, int First) {
  for (int I = First; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) == 0)
      Values[Key.substr(2)] = Argv[I + 1];
  }
}

std::string Args::get(const std::string &Key, const std::string &Def) const {
  auto It = Values.find(Key);
  return It == Values.end() ? Def : It->second;
}

uint64_t Args::num(const std::string &Key, uint64_t Def) const {
  auto It = Values.find(Key);
  return It == Values.end() ? Def : std::strtoull(It->second.c_str(), nullptr, 10);
}

double Args::real(const std::string &Key, double Def) const {
  auto It = Values.find(Key);
  return It == Values.end() ? Def : std::strtod(It->second.c_str(), nullptr);
}

int perfbench::fail(const std::string &Message) {
  std::fprintf(stderr, "perfbench-harness: %s\n", Message.c_str());
  return 1;
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

void JsonOut::sep() {
  if (!Body.empty())
    Body += ",";
}

void JsonOut::num(const std::string &Key, double V) {
  sep();
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  Body += "\"" + Key + "\":" + Buf;
}

void JsonOut::str(const std::string &Key, const std::string &V) {
  sep();
  std::string Esc;
  for (char C : V) {
    if (C == '"' || C == '\\')
      Esc += '\\';
    if (C == '\n') {
      Esc += "\\n";
      continue;
    }
    Esc += C;
  }
  Body += "\"" + Key + "\":\"" + Esc + "\"";
}

void JsonOut::boolean(const std::string &Key, bool V) {
  sep();
  Body += "\"" + Key + "\":" + (V ? "true" : "false");
}

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (Argc < 2)
    return fail("usage: perfbench-harness SUBCOMMAND [--key value]...");
  std::string Cmd = Argv[1];
  Args A(Argc, Argv, 2);
  if (Cmd == "gen")
    return cmdGen(A);
  if (Cmd == "cold-trace")
    return cmdColdTrace(A);
  if (Cmd == "gen-sessions")
    return cmdGenSessions(A);
  if (Cmd == "serve-setup")
    return cmdServeSetup(A);
  if (Cmd == "serve-load")
    return cmdServeLoad(A);
  if (Cmd == "serve-verify")
    return cmdServeVerify(A);
  if (Cmd == "serve-trace")
    return cmdServeTrace(A);
  return fail("unknown subcommand '" + Cmd + "'");
}
